"""Cobordism invariants of Morse functions on manifolds with boundary.

The package decides when two Morse functions are cobordant, whether
boundary data extends over the interior without critical points, and
manipulates the fold/cusp combinatorics of generic extensions to the
plane, including constructive normalization with replayable move traces
and numerically verified local models.

Each public name has one spelling, in the submodule that defines it:
``from cuspcobord.moves import replay``.
"""
