"""Span tracing of the package's layers from outside the package.

``Tracer.install`` wraps the public functions of each module in every
module namespace that binds them (``moves.validate_pattern`` and
``pattern.validate_pattern``; ``cli.validate_descriptor``,
``invariants.validate`` and ``group.validate``; ...), so calls between
modules are seen as well as calls from the benchmark.  Each call records a
span (layer, start, end, parent) in memory; a layer's self time is its
spans' durations minus the part covered by child spans.  ``jacobian`` is
only counted: it runs about fifty times per Newton seed, and a span there
would cost more than the function.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import Counter, defaultdict

# layer name -> (module, function names)
LAYERS = {
    "cli.main": [("cli", "main")],
    "serialize.read": [("cli", "_read_json")] + [
        ("serialize", f) for f in ("descriptor_from_json", "sigma_from_json",
                                   "pattern_from_json", "trace_from_json")],
    "serialize.write": [("cli", "_write_json_file")] + [
        ("serialize", f) for f in ("descriptor_to_json", "sigma_to_json",
                                   "pattern_to_json", "trace_to_json",
                                   "obstruction_to_json")],
    "morse.validate": [("morse", "validate")],
    "algebra": [("invariants", "chi_plus"),
                ("invariants", "cobordism_invariant"),
                ("invariants", "morse_van_schaack"),
                ("group", "is_cobordant")],
    "pattern.validate": [("pattern", "validate_pattern")],
    "pattern.predicates": [("pattern", f) for f in (
        "vector_field_exists", "check_condition_even", "check_condition_odd",
        "cusp_parity_check", "aggregate_even", "aggregate_odd")],
    "moves.normalize": [("moves", "normalize_even"),
                        ("moves", "normalize_odd")],
    "moves.replay": [("moves", "replay")],
    "normal_forms.detect": [("normal_forms", "detect_singular_set")],
    "normal_forms.render": [("normal_forms", "render_svg"),
                            ("normal_forms", "samples_to_csv")],
    "normal_forms.verify": [("normal_forms", "perturbed_fold_image")],
}
MODULES = ("cli", "serialize", "morse", "invariants", "group", "pattern",
           "moves", "normal_forms")


class Tracer:
    def __init__(self, package):
        self.pkg = package
        self.modules = [package] + [getattr(package, m) for m in MODULES]
        self.spans: list[list] = []  # [layer, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.patched: list[tuple[object, str, object]] = []
        pattern = package.pattern
        self.validate_cache = getattr(pattern.validate_pattern, "cache_info",
                                      None) and pattern.validate_pattern
        self.cleared_misses = 0

    # -- installation -----------------------------------------------------

    def _span(self, layer, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([layer, clock(), None,
                          stack[-1] if stack else None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _rebind(self, original, wrapper) -> None:
        for mod in self.modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self.patched.append((mod, name, value))
                    setattr(mod, name, wrapper)

    def install(self) -> None:
        after = {("normal_forms", "detect_singular_set"): self._after_detect,
                 ("moves", "normalize_even"): self._after_normalize,
                 ("moves", "normalize_odd"): self._after_normalize,
                 ("moves", "replay"): self._after_replay,
                 ("cli", "_read_json"): self._after_read,
                 ("cli", "_write_json_file"): self._after_write}
        for layer, targets in LAYERS.items():
            for target in targets:
                # a function a later version drops is simply not traced
                original = getattr(getattr(self.pkg, target[0]), target[1],
                                   None)
                if original is not None:
                    self._rebind(original, self._span(layer, original,
                                                      after.get(target)))
        nf = self.pkg.normal_forms
        self._rebind(nf.jacobian, self._counter("jacobian", nf.jacobian))

    def uninstall(self) -> None:
        for mod, name, value in reversed(self.patched):
            setattr(mod, name, value)
        self.patched.clear()

    # -- counters taken at the boundaries -----------------------------------

    def _after_detect(self, args, kwargs, samples) -> None:
        grid = args[1] if len(args) > 1 else kwargs["grid"]
        self.counts["seeds"] += math.prod(c for _, _, c in grid.axes)
        self.counts["samples"] += len(samples)

    def _after_normalize(self, args, kwargs, result) -> None:
        for move in getattr(result, "moves", ()):
            self.counts["moves." + move.kind] += 1
        self.counts["moves.normalized"] += len(getattr(result, "moves", ()))

    def _after_replay(self, args, kwargs, result) -> None:
        trace = args[0] if args else kwargs["trace"]
        self.counts["moves.replayed"] += len(trace.moves)

    def _after_read(self, args, kwargs, result) -> None:
        self.counts["bytes_in"] += os.path.getsize(args[0])

    def _after_write(self, args, kwargs, result) -> None:
        self.counts["bytes_out"] += os.path.getsize(args[0])

    # -- state a fresh process would not have ---------------------------------

    def cache_misses(self) -> int | None:
        """Validations actually run by the pattern validation cache so far,
        or None once the package has no such cache."""
        if self.validate_cache is None:
            return None
        return self.cleared_misses + self.validate_cache.cache_info().misses

    def reset_process_state(self) -> None:
        if self.validate_cache is not None:
            self.cleared_misses = self.cache_misses()
            self.validate_cache.cache_clear()

    # -- reduction ----------------------------------------------------------

    def clear(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def summary(self) -> dict:
        """Per-layer self time (s), total time (s) and call counts, plus the
        validations made inside normalization and replay."""
        child = [0.0] * len(self.spans)
        for layer, t0, t1, parent in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        self_s: dict = defaultdict(float)
        total_s: dict = defaultdict(float)
        calls: Counter = Counter()
        in_moves = 0
        for idx, (layer, t0, t1, parent) in enumerate(self.spans):
            self_s[layer] += (t1 - t0) - child[idx]
            total_s[layer] += t1 - t0
            calls[layer] += 1
            if layer == "pattern.validate":
                p = parent
                while p is not None:
                    if self.spans[p][0] in ("moves.normalize",
                                            "moves.replay"):
                        in_moves += 1
                        break
                    p = self.spans[p][3]
        return {"self_s": self_s, "total_s": total_s, "calls": calls,
                "validations_in_moves": in_moves}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [[name, round(t0 * 1e6), round(t1 * 1e6), p]
                                 for name, t0, t1, p in self.spans],
                       "counts": dict(self.counts)}, fh)
