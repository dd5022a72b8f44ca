"""Seeded workloads for the pairmds benchmark.

A workload is a list of strata.  Each stratum owns a finite list of candidate
points (q, n, d_pair) and draws a fixed number of them per round, so every
seed runs the same mix of code families and field kinds while the exact
lengths, pair distances and op order change with the seed.  Candidates are
sorted by cost and drawn bucket by bucket (see `_Draws`), which keeps the
latency percentiles steady from seed to seed.

The candidate lists are finite on purpose: `digests.json` holds the sha256 of
the code file `pairmds construct` writes for every candidate, recorded once,
and the correctness gate compares against it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

ROUTE_THEOREM = "column-conditions"
ROUTE_MDS = "mds-hamming"
ROUTE_EC = "ec-algebraic"


@dataclass(frozen=True, order=True)
class Point:
    """One CLI construction request: `construct --q q --n n --dpair d_pair`."""

    q: int
    n: int
    d_pair: int

    @property
    def key(self) -> str:
        return f"{self.q},{self.n},{self.d_pair}"

    @property
    def dimension(self) -> int:
        # every route builds an MDS pair code: k = n - d_pair + 2
        return self.n - self.d_pair + 2

    @property
    def route(self) -> str:
        if self.d_pair in (5, 6):
            return ROUTE_THEOREM
        return ROUTE_MDS if self.n <= self.q + 1 else ROUTE_EC

    @property
    def words(self) -> int:
        """Codebook size q^k, the number of words a brute-force oracle visits."""
        return self.q ** self.dimension

    def construct_argv(self, out: str) -> List[str]:
        return ["construct", "--q", str(self.q), "--n", str(self.n),
                "--dpair", str(self.d_pair), "--out", out]


@dataclass(frozen=True)
class Stratum:
    name: str
    candidates: Tuple[Point, ...]
    per_round: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    strata: Tuple[Stratum, ...]
    # fields whose maximal curve `ec-search` finds during set-up
    curve_fields: Tuple[int, ...]
    # constructs run once in set-up so per-field tables exist before timing
    warmup: Tuple[Point, ...]
    # True: set-up builds a code file for every candidate and the timed loop
    # runs `verify --oracle` on them; False: the loop runs construct, verify
    oracle: bool
    # rounds replayed by the traced run; fixed so its counters repeat exactly
    trace_rounds: int


def _n_max(q: int) -> int:
    """Hasse-Deuring bound q + floor(2 sqrt q) + delta(q), as ecmds.n_max."""
    p = min(d for d in range(2, q + 1) if q % d == 0)
    a = round(math.log(q, p))
    fl = math.isqrt(4 * q)
    delta = 0 if (a >= 3 and a % 2 == 1 and fl % p == 0) else 1
    return q + fl + delta


def _pts(q: int, ns: Sequence[int], d_pair: int) -> Tuple[Point, ...]:
    return tuple(Point(q, n, d_pair) for n in ns)


# -- geometric: d_pair 5 and 6 ------------------------------------------

GEOMETRIC_FIELDS = (7, 8, 9, 11, 13, 16, 25)

# d6 length bands; each keeps one construct within about 0.05-1.2 s
_D6_BANDS: Dict[int, Tuple[int, int]] = {
    7: (20, 50), 8: (30, 65), 9: (40, 82), 11: (30, 80),
    13: (20, 60), 16: (30, 90), 25: (20, 45),
}


def _geometric() -> Workload:
    strata: List[Stratum] = []
    for q in GEOMETRIC_FIELDS:
        strata.append(Stratum(f"d5.q{q}", _pts(q, range(5, q * q + q + 2), 5), 3))
    for q in GEOMETRIC_FIELDS:
        lo, hi = _D6_BANDS[q]
        strata.append(Stratum(f"d6.q{q}", _pts(q, range(lo, hi + 1), 6), 1))
    full = tuple(Point(q, q * q + 1, 6) for q in (7, 8, 9))
    strata.append(Stratum("d6.full", full, 1))
    warmup = tuple(Point(q, q + 2, 5) for q in GEOMETRIC_FIELDS)
    return Workload(
        name="geometric",
        why="d_pair 5/6 construct->verify: pairmetric conditions 1-2, d6 ordering "
            "and ovoid set-up, binary and odd-extension gf; no ecmds, no enumeration",
        strata=tuple(strata),
        curve_fields=(),
        warmup=warmup,
        oracle=False,
        trace_rounds=2,
    )


# -- elliptic: d_pair >= 7 ----------------------------------------------

ELLIPTIC_FIELDS = (13, 16, 25, 27)

# Reed-Solomon points (n <= q+1) are checked by exhaustive MDS minors; the
# scan covers C(n, d_pair - 2) column sets, kept within 1e3..4e3 so that one
# op stays under about 0.6 s
_RS_MINORS = (1000, 4000)


def _elliptic() -> Workload:
    strata: List[Stratum] = []
    for q in ELLIPTIC_FIELDS:
        # one op costs about a + b*n*k (window sums, subset-sum DP)
        ec = tuple(sorted(
            (Point(q, n, d) for n in range(q + 2, _n_max(q) - 2) for d in range(7, n + 1)),
            key=lambda p: (p.n * p.dimension, p),
        ))
        strata.append(Stratum(f"ec.q{q}", ec, 4))
    for q in ELLIPTIC_FIELDS:
        # one op costs about C(n, r) ranks of r x r matrices, r = d_pair - 2
        rs = tuple(sorted(
            (Point(q, n, d) for d in (7, 8) for n in range(d, q + 2)
             if _RS_MINORS[0] <= math.comb(n, d - 2) <= _RS_MINORS[1]),
            key=lambda p: (math.comb(p.n, p.d_pair - 2) * (p.d_pair - 2) ** 2, p),
        ))
        strata.append(Stratum(f"rs.q{q}", rs, 1))
    return Workload(
        name="elliptic",
        why="d_pair>=7 construct->verify: ecmds arrangement and subset-sum DP, "
            "linalg elimination, RS minors scan; the q=27 curve search is set-up",
        strata=tuple(strata),
        curve_fields=ELLIPTIC_FIELDS,
        warmup=(),
        oracle=False,
        trace_rounds=2,
    )


# -- oracle: brute-force verification -----------------------------------

# (family.kind) -> candidates with q^k of 6.5e3..3.3e4 words (under 0.15 s per verify)
_ORACLE: Dict[str, Tuple[Point, ...]] = {
    "d5.prime": (Point(5, 9, 5), Point(7, 8, 5)),
    "d5.bin": (Point(4, 10, 5), Point(8, 8, 5)),
    "d5.oddext": (Point(25, 6, 5), Point(27, 6, 5)),
    "ovoid.prime": (Point(5, 10, 6), Point(7, 9, 6)),
    "ovoid.bin": (Point(4, 11, 6), Point(8, 9, 6)),
    "ovoid.oddext": (Point(25, 7, 6), Point(27, 7, 6)),
    "rs.prime": (Point(11, 9, 7), Point(13, 9, 7)),
    "rs.bin": (Point(32, 8, 7), Point(32, 9, 8)),
    "rs.oddext": (Point(25, 8, 7), Point(27, 8, 7)),
    # a third candidate here puts the verify median inside one file's share
    # of the ops rather than on the boundary between two
    "ec.prime": (Point(7, 10, 7), Point(11, 13, 11), Point(13, 15, 13)),
    "ec.bin": (Point(8, 10, 7), Point(8, 11, 8)),
    "ec.oddext": (Point(9, 12, 10), Point(9, 13, 11)),
}


def _oracle() -> Workload:
    strata = tuple(Stratum(name, cands, 1) for name, cands in _ORACLE.items())
    return Workload(
        name="oracle",
        why="verify --oracle on small d5/ovoid/RS/elliptic files: codeword "
            "enumeration, pair_weight and gf.add; no construction in the timed loop",
        strata=strata,
        curve_fields=(),
        warmup=(),
        oracle=True,
        trace_rounds=3,
    )


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (_geometric(), _elliptic(), _oracle())}


def universe() -> List[Point]:
    """Every point any workload can request, sorted; the digest table's keys."""
    pts = set()
    for w in WORKLOADS.values():
        pts.update(w.warmup)
        for s in w.strata:
            pts.update(s.candidates)
    return sorted(pts)


def _rng(workload: Workload, seed: int, purpose: str) -> random.Random:
    # a str seed is hashed with sha512, so it is stable across processes
    return random.Random(f"{workload.name}:{seed}:{purpose}")


# Each stratum's candidates, sorted by cost, are cut into up to BUCKETS equal
# buckets; successive draws visit the buckets in a shuffled cycle and pick at
# random inside one.  Every run then sees nearly the same cost distribution.
BUCKETS = 6


class _Draws:
    def __init__(self, stratum: Stratum, rng: random.Random):
        cands = stratum.candidates
        b = min(BUCKETS, len(cands))
        self.buckets = [cands[i * len(cands) // b:(i + 1) * len(cands) // b] for i in range(b)]
        self.rng = rng
        self.cycle: List[int] = []

    def __call__(self) -> Point:
        if not self.cycle:
            self.cycle = list(range(len(self.buckets)))
            self.rng.shuffle(self.cycle)
        return self.rng.choice(self.buckets[self.cycle.pop()])


def rounds(workload: Workload, seed: int) -> Iterator[List[Point]]:
    """Endless sequence of rounds; each holds every stratum's draws, shuffled."""
    rng = _rng(workload, seed, "rounds")
    draws = [(_Draws(s, rng), s.per_round) for s in workload.strata]
    while True:
        batch = [draw() for draw, k in draws for _ in range(k)]
        rng.shuffle(batch)
        yield batch
