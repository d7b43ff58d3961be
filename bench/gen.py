"""Seeded input generators owned by the benchmark.

Everything here is derived from the local index rules stated in the
package documentation, written independently of the package so that the
program under test only ever sees the files and objects produced here:

* fold arcs carry an absolute index tau in [n // 2, n - 1];
* a cusp of normal index I in [0, n - 2] has tau_c = max(I, n - 2 - I) and
  abuts arcs of indices {tau_c, tau_c + 1}, except for even n with
  tau_c = n/2 - 1, where both abutting arcs have index n/2;
* an interval end over a boundary point of index mu has an end arc of
  index max(mu, n - 1 - mu).

Sizes are taken from continuous ranges by the workloads (see
``workloads.levels``); the seed decides everything else: pattern words,
boundary indices, sign assignments, descriptors and bump shapes.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product


# ---------------------------------------------------------------------------
# local index rules


def tau_window(n: int) -> tuple[int, int]:
    return n // 2, n - 1


def end_tau(mu: int, n: int) -> int:
    return max(mu, n - 1 - mu)


def next_taus(left: int, I: int, n: int) -> list[int]:
    """Arc indices allowed right of a cusp of normal index I."""
    tc = max(I, n - 2 - I)
    if n % 2 == 0 and tc == n // 2 - 1:
        return [n // 2] if left == n // 2 else []
    if left == tc:
        return [tc + 1]
    if left == tc + 1:
        return [tc]
    return []


def _chain(rng: random.Random, n: int, cusps: int,
           closed: bool) -> tuple[list[int], list[int]] | None:
    lo, hi = tau_window(n)
    taus = [rng.randint(lo, hi)]
    iis: list[int] = []
    for _ in range(cusps):
        options = [(I, t) for I in range(n - 1)
                   for t in next_taus(taus[-1], I, n) if lo <= t <= hi]
        if not options:
            return None
        I, t = rng.choice(options)
        iis.append(I)
        taus.append(t)
    if closed:
        if cusps == 0:
            return taus, iis
        # the last cusp closes the circle back onto the first arc
        if taus[-1] != taus[0]:
            return None
        taus.pop()
    return taus, iis


def random_component(rng: random.Random, n: int, kind: str,
                     cusps: int) -> tuple[list[int], list[int], tuple] | None:
    """(taus, normal indices, endpoint mus) of one valid component."""
    if kind == "circle" and n % 2 == 1 and cusps % 2 == 1:
        return None
    for _ in range(50):
        got = _chain(rng, n, cusps, kind == "circle")
        if got is None:
            continue
        taus, iis = got
        if kind == "circle":
            return taus, iis, ()
        mus = []
        for tau in (taus[0], taus[-1]):
            mus.append(rng.choice([m for m in range(n)
                                   if end_tau(m, n) == tau]))
        return taus, iis, tuple(mus)
    return None


# ---------------------------------------------------------------------------
# patterns as plain data (the wire format of ``pattern_from_json``)


class Pattern:
    """A pattern held as plain lists; ``to_json`` gives the wire format."""

    def __init__(self, n: int):
        self.n = n
        self.components: list[dict] = []
        self.points: list[tuple[str, int]] = []  # (id, mu)
        self._arcs = self._cusps = 0

    def add(self, kind: str, taus: list[int], iis: list[int],
            mus: tuple) -> None:
        seq = []
        for k, tau in enumerate(taus):
            seq.append(("arc", f"a{self._arcs}", tau))
            self._arcs += 1
            if k < len(iis):
                seq.append(("cusp", f"c{self._cusps}", iis[k]))
                self._cusps += 1
        comp = {"kind": kind, "seq": seq, "cusps": len(iis)}
        if kind == "interval":
            ids = []
            for mu in mus:
                pid = f"x{len(self.points)}"
                self.points.append((pid, mu))
                ids.append(pid)
            comp["endpoints"] = tuple(ids)
        self.components.append(comp)

    @property
    def total_cusps(self) -> int:
        return sum(c["cusps"] for c in self.components)

    def mu(self) -> dict[str, int]:
        return dict(self.points)

    def to_json(self) -> dict:
        comps = []
        for c in self.components:
            item: dict = {"kind": c["kind"], "sequence": [
                {"arc": {"id": eid, "tau": v}} if what == "arc"
                else {"cusp": {"id": eid, "I": v}}
                for what, eid, v in c["seq"]]}
            if "endpoints" in c:
                item["endpoints"] = list(c["endpoints"])
            comps.append(item)
        return {"n": self.n,
                "boundary_points": [{"id": pid, "mu": mu}
                                    for pid, mu in self.points],
                "components": comps}


def random_pattern(rng: random.Random, n: int, components: int,
                   max_cusps: int, interval_share: float) -> Pattern:
    p = Pattern(n)
    while len(p.components) < components:
        kind = "interval" if rng.random() < interval_share else "circle"
        got = random_component(rng, n, kind, rng.randint(0, max_cusps))
        if got is not None:
            p.add(kind, *got)
    return p


def large_pattern(rng: random.Random, n: int, intervals: int) -> Pattern:
    """Intervals carrying 0, 1, 2, 3, 0, ... cusps, plus one circle per
    twenty intervals; the words themselves are random.  Fixed cusp counts
    keep the work of normalizing close to a function of the size."""
    p = Pattern(n)
    while len(p.components) < intervals:
        got = random_component(rng, n, "interval", len(p.components) % 4)
        if got is not None:
            p.add("interval", *got)
    for j in range(max(1, intervals // 20)):
        got = random_component(rng, n, "circle", 2 * (j % 2))
        if got is not None:
            p.add("circle", *got)
    return p


# ---------------------------------------------------------------------------
# sign assignments with a stated share of obstructions


def chi_plus(mu: dict[str, int], sigma: dict[str, int]) -> int:
    return sum((-1) ** mu[x] for x in mu if sigma[x] == 1)


def chi_v_for(p: Pattern) -> int:
    """An ambient Euler characteristic satisfying the cusp-parity law."""
    return (p.total_cusps - len(p.points) // 2) % 2


def normalizable(p: Pattern, sigma: dict[str, int], chi_v: int | None) -> bool:
    """The sign-sum law (odd n) or the parity law (even n)."""
    mu = p.mu()
    if p.n % 2 == 1:
        return sum((-1) ** mu[x] * sigma[x] for x in mu) == 0
    return (chi_v - chi_plus(mu, sigma)) % 2 == 0


def sigma_for(rng: random.Random, p: Pattern, solvable: bool,
              chi_v: int | None) -> dict[str, int]:
    """A sign assignment whose normalization succeeds iff ``solvable``."""
    mu = p.mu()
    ids = list(mu)
    if p.n % 2 == 1:
        # weighted signs eps = (-1)^mu * sigma, half +1 and half -1
        eps = [1, -1] * (len(ids) // 2)
        rng.shuffle(eps)
        sigma = {x: e * (-1) ** mu[x] for x, e in zip(ids, eps)}
    else:
        # every other interval violates the normal-field condition, which
        # holds iff 2 * cusps + s0 + s1 = 0 (mod 4)
        sigma = {}
        intervals = [c for c in p.components if c["kind"] == "interval"]
        for i, c in enumerate(intervals):
            x0, x1 = c["endpoints"]
            s0 = rng.choice((1, -1))
            same = (c["cusps"] % 2 == 1) == (i % 2 == 1)
            sigma[x0], sigma[x1] = s0, (s0 if same else -s0)
    if ids and normalizable(p, sigma, chi_v) != solvable:
        # one flip moves the sign sum by 2 and chi_plus by 1
        x = rng.choice(ids)
        sigma[x] = -sigma[x]
    return sigma


# ---------------------------------------------------------------------------
# Morse descriptors


def random_descriptor(rng: random.Random, n: int, prefix: str = "x") -> dict:
    """A realizable descriptor as JSON.

    Boundary points come in pairs (one even and one odd index for even n,
    so chi(boundary) = 0 as a closed odd-dimensional manifold requires),
    chi_M = chi_boundary / 2 for odd n, and interior points are chosen so
    that chi_M = sum over the interior of (-1)^index + chi_plus.
    """
    boundary = []
    for j in range(2 * rng.randint(0, 3)):
        if n % 2 == 0 and j % 2 == 1:
            mu = rng.choice([m for m in range(n)
                             if m % 2 != boundary[-1]["mu"] % 2])
        else:
            mu = rng.randrange(n)
        item = {"id": f"{prefix}{j}", "mu": mu, "sigma": rng.choice((1, -1))}
        if rng.random() < 0.3:
            item["value"] = str(Fraction(rng.randint(-9, 9),
                                         rng.randint(1, 4)))
        boundary.append(item)
    chi_b = sum((-1) ** b["mu"] for b in boundary)
    cp = sum((-1) ** b["mu"] for b in boundary if b["sigma"] == 1)
    if n % 2 == 1:
        chi_M = chi_b // 2
    else:
        chi_M = cp + rng.randint(-2, 2)
    need = chi_M - cp  # sum of (-1)^index over the interior
    indices = [rng.randint(0, n) for _ in range(rng.randint(0, 2))]
    have = sum((-1) ** i for i in indices)
    while have != need:
        step = 1 if need > have else -1
        indices.append(rng.choice([i for i in range(n + 1)
                                   if (-1) ** i == step]))
        have += step
    interior = [{"id": f"p{j}", "index": i} for j, i in enumerate(indices)]
    return {"n": n, "oriented": bool(rng.getrandbits(1)), "chi_M": chi_M,
            "chi_boundary": chi_b, "interior": interior,
            "boundary": boundary}


# ---------------------------------------------------------------------------
# small configurations for the in-process stream


def _forced_taus(tau0: int, iis: tuple, n: int) -> list[int] | None:
    """Arc indices forced by starting at tau0 and crossing each cusp."""
    lo, hi = tau_window(n)
    taus = [tau0]
    for I in iis:
        nxt = [t for t in next_taus(taus[-1], I, n) if lo <= t <= hi]
        if not nxt:
            return None
        taus.append(nxt[0])
    return taus


def circle_shapes(n: int, max_cusps: int) -> list[tuple]:
    lo, hi = tau_window(n)
    out = [("circle", (tau,), ()) for tau in range(lo, hi + 1)]
    for c in range(1, max_cusps + 1):
        if n % 2 == 1 and c % 2 == 1:
            continue
        for iis in product(range(n - 1), repeat=c):
            for tau0 in range(lo, hi + 1):
                taus = _forced_taus(tau0, iis, n)
                if taus is not None and taus[-1] == taus[0]:
                    out.append(("circle", tuple(taus[:-1]), iis))
    return out


def interval_shapes(n: int, max_cusps: int) -> list[tuple]:
    lo, hi = tau_window(n)
    out = []
    for c in range(max_cusps + 1):
        for iis in product(range(n - 1), repeat=c):
            for tau0 in range(lo, hi + 1):
                taus = _forced_taus(tau0, iis, n)
                if taus is None:
                    continue
                for mu0, mu1 in product(range(n), repeat=2):
                    if (end_tau(mu0, n) == taus[0]
                            and end_tau(mu1, n) == taus[-1]):
                        out.append(("interval", tuple(taus), iis, (mu0, mu1)))
    return out


def shape_pattern(n: int, shapes: tuple) -> Pattern:
    p = Pattern(n)
    for shape in shapes:
        p.add(shape[0], list(shape[1]), list(shape[2]),
              shape[3] if shape[0] == "interval" else ())
    return p


def all_sigmas(p: Pattern) -> list[dict[str, int]]:
    ids = [pid for pid, _ in p.points]
    return [dict(zip(ids, bits)) for bits in product((1, -1), repeat=len(ids))]


def stream_patterns(rng: random.Random, count: int) -> list[Pattern]:
    """``count`` small patterns cycling over n in {2, 3, 4} and 1-3
    components of at most three cusps each, drawn from the full shape lists
    of each dimension."""
    shapes = {n: circle_shapes(n, 3) + interval_shapes(n, 3) for n in (2, 3, 4)}
    classes = [(n, size) for size in (1, 2, 3) for n in (2, 3, 4)]
    out = []
    for i in range(count):
        n, size = classes[i % len(classes)]
        combo = tuple(rng.choice(shapes[n]) for _ in range(size))
        out.append(shape_pattern(n, combo))
    return out


def lerp(u: float, lo: float, hi: float) -> float:
    return lo + (hi - lo) * u


def log_lerp(u: float, lo: float, hi: float) -> float:
    return math.exp(lerp(u, math.log(lo), math.log(hi)))
