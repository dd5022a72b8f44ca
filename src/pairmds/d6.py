"""Parity checks for MDS symbol-pair codes of pair distance 6, from ovoids.

Columns are points of an ovoid of PG(3, q) (realized as an elliptic quadric),
ordered so that no four cyclically consecutive points are coplanar.  The
ordering walks the pencil of secant planes through two distinguished points
A, B: planes are consumed in pairs, drawing greedily alternating "proper"
points (points off the plane of the three predecessors); even q handles the
odd plane count by interleaving the first three planes with the next two.
Blocked endgames fall back to bounded backtracking.  The ordering is not
re-checked on its own: the certificate that ``construct_d6`` computes from
the finished matrix (conditions 1-3 of
``pairmetric.check_theorem_conditions``) is the re-verification, and a
matrix that fails it is never returned.

q = 3 and q = 4 have too few points per plane for the walk and use fixed
matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import ConstructionError, ParameterError
from .gf import FieldSpec, absolute_trace
from .linalg import CodeMatrix, EnumerationCapExceeded, LinearCode, dot, null_space
from .pairmetric import PairCertificate, _first_dependent_subset, check_theorem_conditions

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


def _det3(f: FieldSpec, m) -> int:
    a, b, c = m[0]
    d, e, g = m[1]
    h, i, j = m[2]
    t1 = f.mul(a, f.sub(f.mul(e, j), f.mul(g, i)))
    t2 = f.mul(b, f.sub(f.mul(d, j), f.mul(g, h)))
    t3 = f.mul(c, f.sub(f.mul(d, i), f.mul(e, h)))
    return f.add(f.sub(t1, t2), t3)


def _det4(f: FieldSpec, rows) -> int:
    out = 0
    sign = 1
    for c in range(4):
        piv = rows[0][c]
        if piv:
            minor = [[rows[r][cc] for cc in range(4) if cc != c] for r in range(1, 4)]
            term = f.mul(piv, _det3(f, minor))
            out = f.add(out, term if sign > 0 else f.neg(term))
        sign = -sign
    return out


def coplanar(f: FieldSpec, p1: Point, p2: Point, p3: Point, p4: Point) -> bool:
    """True iff the 4x4 coordinate matrix of the four points is singular."""
    return _det4(f, (p1, p2, p3, p4)) == 0


@dataclass(frozen=True)
class Ovoid:
    """An ovoid of PG(3, q) with the secant-plane pencil through A and B."""

    field: FieldSpec
    points: Tuple[Point, ...]
    A: Point
    B: Point
    planes: Tuple[Tuple[Point, ...], ...]  # each includes A and B
    form_c: int  # parameter of the defining quadratic form

    def proper_plane_points(self) -> List[List[Point]]:
        ab = {self.A, self.B}
        return [[p for p in plane if p not in ab] for plane in self.planes]


def _quadric_points(f: FieldSpec, c: int) -> List[Point]:
    pts: List[Point] = [(0, 1, 0, 0)]
    even = f.p == 2
    for y in f.elements():
        y2 = f.mul(y, y)
        for z in f.elements():
            z2 = f.mul(z, z)
            if even:
                g = f.add(f.add(y2, f.mul(y, z)), f.mul(c, z2))
            else:
                g = f.sub(y2, f.mul(c, z2))
            pts.append((1, f.neg(g), y, z))
    return pts


def elliptic_quadric(f: FieldSpec) -> Ovoid:
    """The standard ovoid (elliptic quadric) with A = (0,1,0,0), B = (1,0,0,0).

    Odd q uses the form y^2 - c z^2 with c the least non-square; even q uses
    y^2 + yz + c z^2 with c the least element of absolute trace 1.  All ovoid
    axioms are verified at construction for q <= 13.
    """
    q = f.q
    if q < 3:
        raise ParameterError("ovoids need q >= 3")
    if f.p == 2:
        c = next(x for x in f.elements() if absolute_trace(f, x) == 1)
    else:
        squares = {f.mul(x, x) for x in f.elements()}
        c = next(x for x in f.elements() if x not in squares)
    pts = _quadric_points(f, c)
    A: Point = (0, 1, 0, 0)
    B: Point = (1, 0, 0, 0)
    planes = tuple(tuple(pl) for pl in secant_planes_raw(f, pts, A, B))
    o = Ovoid(f, tuple(sorted(pts)), A, B, planes, c)
    if q <= 13:
        _verify_ovoid(o)
    return o


def secant_planes_raw(
    f: FieldSpec, pts: Sequence[Point], A: Point, B: Point
) -> List[List[Point]]:
    if A == B:
        raise ParameterError("A and B must be distinct")
    ab = CodeMatrix.from_rows(f, [list(A), list(B)])
    basis = null_space(ab).entries
    if len(basis) != 2:  # pragma: no cover - A != B guarantees rank 2
        raise ConstructionError("secant pencil basis has wrong dimension")
    w1, w2 = basis
    normals = [
        tuple(f.add(w1[t], f.mul(c, w2[t])) for t in range(4)) for c in f.elements()
    ]
    normals.append(tuple(w2))
    planes = []
    for w in normals:
        on_plane = [p for p in pts if dot(f, w, p) == 0]
        planes.append(sorted(on_plane))
    return planes


def secant_planes(o: Ovoid, A: Point, B: Point) -> List[List[Point]]:
    """The q+1 planes of the pencil through line AB, with their ovoid points."""
    return secant_planes_raw(o.field, o.points, A, B)


def _verify_ovoid(o: Ovoid) -> None:
    f = o.field
    q = f.q
    if len(o.points) != q * q + 1:
        raise ConstructionError("ovoid size is not q^2 + 1")
    if len(set(o.points)) != len(o.points):
        raise ConstructionError("duplicate ovoid points")
    # no 3 collinear: no three points are linearly dependent in F_q^4
    triple = _first_dependent_subset(f, o.points, 3)
    if triple is not None:
        raise ConstructionError(f"collinear points {[o.points[i] for i in triple]}")
    # the pencil planes partition the rest into q+1 classes of size q-1
    seen: set = set()
    for plane in o.planes:
        if len(plane) != q + 1:
            raise ConstructionError("secant plane does not carry q+1 ovoid points")
        if o.A not in plane or o.B not in plane:
            raise ConstructionError("secant plane misses A or B")
        rest = [p for p in plane if p not in (o.A, o.B)]
        if seen & set(rest):
            raise ConstructionError("secant planes overlap outside A, B")
        seen.update(rest)
    if len(seen) != q * q - 1:
        raise ConstructionError("secant planes do not cover the ovoid")


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
    proper = o.proper_plane_points()
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
        for p in proper[slot]:
            if p in used:
                continue
            if len(seq) >= 3 and coplanar(f, seq[-3], seq[-2], seq[-1], p):
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
        raise ParameterError(f"n must lie in [6, q^2+1] = [6, {q * q + 1}], got {n}")
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
        raise ParameterError(f"n must lie in [6, q^2+1] = [6, {q * q + 1}], got {n}")
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
