"""Parity checks for MDS symbol-pair codes of pair distance 6, from ovoids.

Columns are points of an ovoid of PG(3, q) (realized as an elliptic quadric),
ordered so that no four cyclically consecutive points are coplanar.  The
ordering walks the pencil of secant planes through two distinguished points
A, B: planes are consumed in pairs, drawing greedily alternating "proper"
points (points off the plane of the three predecessors); even q handles the
odd plane count by interleaving the first three planes with the next two.
Blocked endgames fall back to bounded backtracking.

A window whose planes alternate a, b, a, b (a != b) is tested by one integer
comparison.  A proper point of pencil plane pi_s is (1, -kappa_s alpha^2,
alpha d_s), with d_s a fixed (y, z) of the plane, kappa_s = g_c(d_s) and
alpha != 0.  Two points X1, X2 of pi_a span a line that meets AB at
alpha2 X1 - alpha1 X2 ~ (1, kappa_a alpha1 alpha2, 0, 0).  Lines X1X2 and
Y1Y2 of the distinct planes pi_a, pi_b can meet only on AB, the planes'
intersection, so the four points are coplanar exactly when
kappa_a alpha1 alpha2 = kappa_b beta1 beta2, with beta1, beta2 the alphas
of Y1, Y2.  With the key h(X) = 2 log(alpha) + log(-kappa_s), which is
log x1(X) mod q - 1, that is h(X1) + h(X2) = h(Y1) + h(Y2) mod 2(q - 1)
(each side is twice the log of its -kappa alpha alpha'), so a slot sums its
three predecessors' keys once and each candidate compares its own key.  Every other window is one
``coplanar`` determinant: those holding A or B, those across two plane
pairs, the even-q triple alternation, and the wrap windows of the last
slot.  The search visits the same states as with determinants only.

The ordering is not re-checked on its own: the certificate that
``construct_d6`` computes from the finished matrix (conditions 1-3 of
``pairmetric.check_theorem_conditions``) is the re-verification, and a
matrix that fails it is never returned.

The ovoid is the standard elliptic quadric x0*x1 + g_c(x2, x3) = 0 whose
form ``pairmetric`` defines (``_elliptic_form_c``, and the row of -g_c
that lists the points here).  It depends on q alone, so
``elliptic_quadric`` builds it once per field per process; every later
``construct_d6`` over the same field reuses it and only re-runs the
ordering.  The plane through A, B and a point is read from the point's
(y : z), so one pass over the points sorts them into the q + 1 planes.  The
cached ovoid also holds each plane's proper points and their pencil keys.
The ovoid is not checked on its own either: its size and its partition into
planes hold by construction, and because the columns lie on the quadric,
the certificate's condition 1 (no three columns collinear) holds by the
quadric test, with no search, so a matrix certifies at every length up to
q^2 + 1.

q = 3 and q = 4 have too few points per plane for the walk and use fixed
matrices; the q = 3 one is not on the standard quadric, and its condition 1
is searched.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field as dc_field
from types import MappingProxyType
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .errors import ConstructionError, ParameterError
from .gf import FieldSpec, _named
from .linalg import CodeMatrix, EnumerationCapExceeded, LinearCode, det4
from .pairmetric import _elliptic_form_c, _elliptic_form_negated, check_theorem_conditions

Point = Tuple[int, int, int, int]

DEFAULT_MAX_STATES = 100_000

_Q3_COLUMNS: Tuple[Point, ...] = (
    (0, 1, 0, 0), (1, 0, 0, 0), (1, 1, 1, 1), (1, 2, 0, 1), (1, 1, 2, 2),
    (1, 2, 0, 2), (1, 2, 2, 1), (1, 1, 2, 0), (1, 2, 1, 2), (1, 1, 1, 0),
)
# GF(4): 2 = w (primitive), 3 = w + 1
_Q4_COLUMNS: Tuple[Point, ...] = (
    (0, 1, 0, 0), (1, 0, 0, 0), (1, 1, 1, 0), (1, 2, 0, 1), (1, 3, 2, 0),
    (1, 1, 0, 2), (1, 2, 3, 0), (1, 3, 0, 3), (1, 2, 1, 1), (1, 2, 1, 2),
    (1, 3, 2, 1), (1, 1, 2, 2), (1, 2, 3, 2), (1, 1, 2, 3), (1, 3, 3, 3),
    (1, 3, 3, 1), (1, 1, 1, 3),
)
_Q4_N7_COLUMNS: Tuple[Point, ...] = (
    (0, 1, 0, 0), (1, 0, 0, 0), (1, 1, 1, 0), (1, 2, 0, 1), (1, 3, 2, 0),
    (1, 1, 0, 2), (1, 2, 1, 2),
)


def coplanar(f: FieldSpec, p1: Point, p2: Point, p3: Point, p4: Point) -> bool:
    """True iff the 4x4 coordinate matrix of the four points is singular."""
    return det4(f, (p1, p2, p3, p4)) == 0


@dataclass(frozen=True)
class Ovoid:
    """An ovoid of PG(3, q) with the secant-plane pencil through A and B."""

    field: FieldSpec
    points: Tuple[Point, ...]
    A: Point
    B: Point
    planes: Tuple[Tuple[Point, ...], ...]  # each includes A and B
    form_c: int  # parameter of the defining quadratic form
    proper: Tuple[Tuple[Point, ...], ...]  # each plane without A and B
    # each proper point's key h mod 2(q - 1) (``_pencil_keys``)
    pencil_keys: Mapping[Point, int] = dc_field(hash=False)


def _quadric_points(f: FieldSpec) -> List[Point]:
    """(0, 1, 0, 0), then (1, -g_c(y, z), y, z) over every (y, z), in
    ascending order of y, then z."""
    q = f.q
    ys = [y for y in f.elements() for _ in range(q)]
    zs = list(f.elements()) * q
    x1 = _elliptic_form_negated(f, ys, zs)
    return [(0, 1, 0, 0)] + list(zip(itertools.repeat(1), x1, ys, zs))


@functools.lru_cache(maxsize=None)
def elliptic_quadric(f: FieldSpec) -> Ovoid:
    """The standard ovoid (elliptic quadric) with A = (0,1,0,0), B = (1,0,0,0).

    Odd q uses the form y^2 - c z^2 with c the least non-square; even q uses
    y^2 + yz + c z^2 with c the least element of absolute trace 1.

    The pencil is read from the coordinates: a plane through A and B is
    y + c z = 0 (plane c, ascending) or z = 0 (plane q), so the plane of
    (1, x1, y, z) is c = -y/z when z != 0, and q when z = 0.  Each plane
    lists A, B, then its q - 1 proper points in ascending order.

    Built once per field per process and shared: an ``Ovoid`` is frozen and
    holds only tuples and a read-only mapping, so no caller can change the
    cached instance.
    """
    q = f.q
    if q < 3:
        raise ParameterError("ovoids need q >= 3")
    A: Point = (0, 1, 0, 0)
    B: Point = (1, 0, 0, 0)
    points = tuple(sorted(_quadric_points(f)))  # A, B, then the proper points
    buckets: List[List[Point]] = [[] for _ in range(q + 1)]
    for p in points[2:]:
        _, _, y, z = p
        buckets[f.div(f.neg(y), z) if z else q].append(p)
    proper = tuple(map(tuple, buckets))
    planes = tuple((A, B) + pl for pl in proper)
    return Ovoid(f, points, A, B, planes, _elliptic_form_c(f), proper, _pencil_keys(f, proper))


def _pencil_keys(f: FieldSpec, proper: Sequence[Sequence[Point]]) -> Mapping[Point, int]:
    """h(X) = 2 log(alpha) + log(-kappa) mod 2(q - 1) for every proper point
    X = (1, -kappa alpha^2, alpha y0, alpha z0) of each plane, where (y0, z0)
    is the (y, z) of the plane's first proper point and kappa = g_c(y0, z0),
    so -kappa is that point's x1.  Read-only."""
    log, q1 = f._log, f.q - 1
    keys: Dict[Point, int] = {}
    for plane in proper:
        _, x1, y0, z0 = plane[0]
        i, l0 = (2, log[y0]) if y0 else (3, log[z0])
        for p in plane:
            keys[p] = (2 * (log[p[i]] - l0) + log[x1]) % (2 * q1)
    return MappingProxyType(keys)


# -- ordering ----------------------------------------------------------


def _schedule(q: int, n: int, even: bool) -> List[object]:
    """The slot schedule: a slot is 'A', 'B', or a plane index.

    After the prefix, each plane pair alternates its two planes.
    """
    per_plane = q - 1
    if even and n > q * q - q + 2:
        # triple alternation over planes 0-2, closed by an interleave with
        # planes 3 and 4, which then continue as a shortened pair
        slots: List[object] = ["A", "B"] + [0, 1, 2] * (q - 2)
        slots += [3, 0, 4, 1, 3, 2, 4, 3, 4]
        pairs = [(3, 4, 2 * (q - 4))] + [(t, t + 1, 2 * per_plane) for t in range(5, q, 2)]
    elif n % 2 == 1 and n <= 2 * q - 1:
        # the wrap window Z, A, B, P1 must avoid a fourth point of plane 0,
        # so odd short lengths alternate planes 2 and 3
        slots = ["A", "B", 0]
        pairs = [(2, 3, 2 * per_plane)]
    else:
        slots = ["A", "B"]
        last = q if q % 2 == 1 else q - 1
        pairs = [(t, t + 1, 2 * per_plane) for t in range(0, last, 2)]
    for pa, pb, length in pairs:
        take = min(n - len(slots), length)
        slots.extend(pa if t % 2 == 0 else pb for t in range(take))
    if len(slots) < n:
        raise ParameterError(f"length {n} exceeds the points reachable by the schedule")
    return slots


class _Budget:
    __slots__ = ("left",)

    def __init__(self, n: int):
        self.left = n

    def spend(self) -> bool:
        self.left -= 1
        return self.left >= 0


def _try_schedule(
    o: Ovoid, slots: List[object], n: int, budget: _Budget
) -> Optional[List[Point]]:
    f = o.field
    proper, key, m = o.proper, o.pencil_keys, 2 * (f.q - 1)
    seq: List[Point] = []
    used: set = set()
    iters: List[Iterator[Point]] = []

    def candidates(t: int) -> Iterator[Point]:
        slot = slots[t]
        if slot == "A":
            yield o.A
            return
        if slot == "B":
            yield o.B
            return
        # planes a, b, a, b: p is on the plane of its predecessors exactly
        # when its key is this one
        pencil = t >= 3 and slots[t - 3] == slots[t - 1] != slot == slots[t - 2]
        if pencil:
            coplanar_key = (key[seq[-3]] + key[seq[-1]] - key[seq[-2]]) % m
        for p in proper[slot]:
            if p in used:
                continue
            if pencil:
                if key[p] == coplanar_key:
                    continue
            elif t >= 3 and coplanar(f, seq[-3], seq[-2], seq[-1], p):
                continue
            if t == n - 1:
                if coplanar(f, seq[n - 3], seq[n - 2], p, seq[0]):
                    continue
                if coplanar(f, seq[n - 2], p, seq[0], seq[1]):
                    continue
                if coplanar(f, p, seq[0], seq[1], seq[2]):
                    continue
            yield p

    t = 0
    iters.append(candidates(0))
    while True:
        try:
            p = next(iters[-1])
        except StopIteration:
            iters.pop()
            if not iters:
                return None
            used.discard(seq.pop())
            t -= 1
            continue
        if not budget.spend():
            return None
        seq.append(p)
        used.add(p)
        t += 1
        if t == n:
            return seq
        iters.append(candidates(t))


def order_points(o: Ovoid, n: int) -> List[Point]:
    """Order n ovoid points so no 4 cyclically consecutive ones are coplanar.

    Raises ``EnumerationCapExceeded`` when the backtracking spends
    ``DEFAULT_MAX_STATES`` states without finishing.
    """
    f = o.field
    q = f.q
    if not 6 <= n <= q * q + 1:
        raise ParameterError(f"n must lie in [6, q^2+1] = [6, {q * q + 1}], got {_named('n', n)}")
    even = f.p == 2
    if (even and q < 8) or (not even and q < 5):
        raise ParameterError(f"plane walk needs q >= 5 odd or q >= 8 even, got q={q}")
    budget = _Budget(DEFAULT_MAX_STATES)
    seq = _try_schedule(o, _schedule(q, n, even), n, budget)
    if seq is not None:
        return seq
    if budget.left < 0:
        raise EnumerationCapExceeded(
            f"point ordering for q={q}, n={n} spent its {DEFAULT_MAX_STATES} search states"
        )
    raise ConstructionError(f"point ordering for q={q}, n={n} exhausted its search tree")


def construct_d6(f: FieldSpec, n: int):
    """Linear MDS (n, 6)_q symbol-pair code with a recomputed certificate."""
    q = f.q
    if q < 3:
        raise ParameterError("pair distance 6 needs q >= 3")
    if not 6 <= n <= q * q + 1:
        raise ParameterError(f"n must lie in [6, q^2+1] = [6, {q * q + 1}], got {_named('n', n)}")
    provenance: Dict[str, object] = {"construction": "ovoid"}
    if q == 3:
        cols = _Q3_COLUMNS[:n]
        provenance["layout"] = "fixed-matrix"
    elif q == 4:
        cols = _Q4_N7_COLUMNS if n == 7 else _Q4_COLUMNS[:n]
        provenance["layout"] = "fixed-matrix"
    else:
        o = elliptic_quadric(f)
        cols = tuple(order_points(o, n))
        provenance["quadric_form_c"] = o.form_c
        provenance["A"] = list(o.A)
        provenance["B"] = list(o.B)
    h = CodeMatrix.from_columns(f, cols)
    cert = check_theorem_conditions(h, 4)
    if not cert.ok:
        raise ConstructionError(
            f"ovoid construction failed verification at q={q}, n={n}: "
            f"{cert.failed_condition} witness={cert.failing_set}"
        )
    return LinearCode(h), cert, provenance
