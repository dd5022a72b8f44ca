"""MDS symbol-pair codes of general pair distance from elliptic curve codes.

Evaluation codes on a maximal curve give [n, k, n-k] or [n, k, n-k+1] codes;
ordering the evaluation points so that no k cyclically consecutive points sum
to the identity promotes them to MDS symbol-pair codes of pair distance
n - k + 2.  The arrangement pairs each point with its negative, threads the
pairs so that windows always cut a pair, patches the tail with the two SWITCH
rules, and falls back to bounded local rearrangement; window_check is always
re-run on the result.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import ConstructionError, ParameterError
from .gf import FieldSpec, absolute_trace
from .linalg import CodeMatrix, LinearCode, null_space, rank
from .pairmetric import ROUTE_EC, PairCertificate

ECPoint = Optional[Tuple[int, int]]  # None is the identity O at infinity

REARRANGE_ATTEMPTS = 10_000


@dataclass(frozen=True)
class EllipticCurve:
    """y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 over GF(q)."""

    field: FieldSpec
    a1: int
    a2: int
    a3: int
    a4: int
    a6: int

    def __post_init__(self):
        for c in (self.a1, self.a2, self.a3, self.a4, self.a6):
            self.field.check(c)
        if self.discriminant() == 0:
            raise ParameterError("singular Weierstrass equation")

    def coefficients(self) -> Tuple[int, int, int, int, int]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def discriminant(self) -> int:
        f = self.field
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        b2 = f.add(f.mul(a1, a1), f.smul(4, a2))
        b4 = f.add(f.smul(2, a4), f.mul(a1, a3))
        b6 = f.add(f.mul(a3, a3), f.smul(4, a6))
        b8 = f.sub(
            f.add(
                f.add(f.mul(f.mul(a1, a1), a6), f.smul(4, f.mul(a2, a6))),
                f.mul(a2, f.mul(a3, a3)),
            ),
            f.add(f.mul(a1, f.mul(a3, a4)), f.mul(a4, a4)),
        )
        t1 = f.mul(f.mul(b2, b2), b8)
        t2 = f.smul(8, f.mul(b4, f.mul(b4, b4)))
        t3 = f.smul(27, f.mul(b6, b6))
        t4 = f.smul(9, f.mul(b2, f.mul(b4, b6)))
        return f.sub(t4, f.add(f.add(t1, t2), t3))

    def is_on_curve(self, pt: ECPoint) -> bool:
        if pt is None:
            return True
        f = self.field
        x, y = pt
        lhs = f.add(f.mul(y, y), f.add(f.mul(self.a1, f.mul(x, y)), f.mul(self.a3, y)))
        x2 = f.mul(x, x)
        rhs = f.add(
            f.mul(x, x2), f.add(f.mul(self.a2, x2), f.add(f.mul(self.a4, x), self.a6))
        )
        return lhs == rhs


def ec_neg(c: EllipticCurve, pt: ECPoint) -> ECPoint:
    if pt is None:
        return None
    f = c.field
    x, y = pt
    return (x, f.neg(f.add(y, f.add(f.mul(c.a1, x), c.a3))))


def ec_add(c: EllipticCurve, p: ECPoint, q: ECPoint) -> ECPoint:
    """Chord-tangent group law with identity O (valid in any characteristic)."""
    f = c.field
    if p is not None and not c.is_on_curve(p):
        raise ParameterError(f"point {p} is not on the curve")
    if q is not None and not c.is_on_curve(q):
        raise ParameterError(f"point {q} is not on the curve")
    if p is None:
        return q
    if q is None:
        return p
    x1, y1 = p
    x2, y2 = q
    if x1 == x2 and y2 == f.neg(f.add(y1, f.add(f.mul(c.a1, x1), c.a3))):
        return None
    if p == q:
        num = f.sub(
            f.add(f.smul(3, f.mul(x1, x1)), f.add(f.smul(2, f.mul(c.a2, x1)), c.a4)),
            f.mul(c.a1, y1),
        )
        den = f.add(f.smul(2, y1), f.add(f.mul(c.a1, x1), c.a3))
    else:
        num = f.sub(y2, y1)
        den = f.sub(x2, x1)
    lam = f.div(num, den)
    nu = f.sub(y1, f.mul(lam, x1))
    x3 = f.sub(
        f.sub(f.add(f.mul(lam, lam), f.mul(c.a1, lam)), c.a2), f.add(x1, x2)
    )
    y3 = f.sub(f.neg(f.mul(f.add(lam, c.a1), x3)), f.add(nu, c.a3))
    return (x3, y3)


def ec_sum(c: EllipticCurve, pts: Sequence[ECPoint]) -> ECPoint:
    acc: ECPoint = None
    for p in pts:
        acc = ec_add(c, acc, p)
    return acc


class _SolveTables:
    """Per-field helpers for solving the Weierstrass quadratic in y."""

    def __init__(self, f: FieldSpec):
        self.f = f
        if f.p == 2:
            self.trace = [absolute_trace(f, x) for x in f.elements()]
            # least z with z^2 + z = u, for each solvable u
            self.artin: Dict[int, int] = {}
            for z in f.elements():
                u = f.add(f.mul(z, z), z)
                if u not in self.artin:
                    self.artin[u] = z
            self.sqrt = [f.pow(x, f.q // 2) for x in f.elements()]
        else:
            self.sqrt_of: Dict[int, int] = {}
            for x in f.elements():
                s = f.mul(x, x)
                if s not in self.sqrt_of or x < self.sqrt_of[s]:
                    self.sqrt_of[s] = x


@functools.lru_cache(maxsize=None)
def _solver(f: FieldSpec) -> _SolveTables:
    return _SolveTables(f)


def _ys_for_x(c: EllipticCurve, x: int) -> List[int]:
    """All y with (x, y) on the curve, ascending."""
    f = c.field
    tab = _solver(f)
    x2 = f.mul(x, x)
    rhs = f.add(f.mul(x, x2), f.add(f.mul(c.a2, x2), f.add(f.mul(c.a4, x), c.a6)))
    b = f.add(f.mul(c.a1, x), c.a3)
    if f.p == 2:
        if b == 0:
            return [tab.sqrt[rhs]]
        u = f.mul(rhs, f.inv(f.mul(b, b)))
        if tab.trace[u]:
            return []
        z = tab.artin[u]
        return sorted((f.mul(b, z), f.mul(b, f.add(z, 1))))
    # odd characteristic: y = (-b +- s) / 2 with s^2 = b^2 + 4 rhs
    disc = f.add(f.mul(b, b), f.smul(4, rhs))
    if disc == 0:
        return [f.div(f.neg(b), f.scalar(2))]
    s = tab.sqrt_of.get(disc)
    if s is None:
        return []
    inv2 = f.inv(f.scalar(2))
    y1 = f.mul(f.sub(s, b), inv2)
    y2 = f.mul(f.sub(f.neg(s), b), inv2)
    return sorted((y1, y2))


def ec_points(c: EllipticCurve) -> List[ECPoint]:
    """O followed by all affine rational points in ascending (x, y) order."""
    pts: List[ECPoint] = [None]
    for x in c.field.elements():
        pts.extend((x, y) for y in _ys_for_x(c, x))
    return pts


def ec_point_count(c: EllipticCurve) -> int:
    n = 1
    for x in c.field.elements():
        n += len(_ys_for_x(c, x))
    return n


def n_max(f: FieldSpec) -> int:
    """Hasse-Deuring maximum q + floor(2*sqrt(q)) + delta(q) of rational points."""
    q = f.q
    fl = math.isqrt(4 * q)
    delta = 0 if (f.a >= 3 and f.a % 2 == 1 and fl % f.p == 0) else 1
    return q + fl + delta


def _curve_candidates(f: FieldSpec) -> Iterator[EllipticCurve]:
    if f.p >= 5:
        for a4 in f.elements():
            for a6 in f.elements():
                try:
                    yield EllipticCurve(f, 0, 0, 0, a4, a6)
                except ParameterError:
                    continue
    else:
        for a1 in f.elements():
            for a2 in f.elements():
                for a3 in f.elements():
                    for a4 in f.elements():
                        for a6 in f.elements():
                            try:
                                yield EllipticCurve(f, a1, a2, a3, a4, a6)
                            except ParameterError:
                                continue


@functools.lru_cache(maxsize=None)
def find_maximal_curve(f: FieldSpec) -> EllipticCurve:
    """First curve in ascending coefficient order attaining n_max(q).

    Scans short Weierstrass forms for p >= 5 and the general form for
    characteristics 2 and 3.
    """
    if f.q > 1 << 10:
        raise ParameterError("maximal-curve search supports q <= 2^10")
    target = n_max(f)
    for curve in _curve_candidates(f):
        if ec_point_count(curve) == target:
            return curve
    raise ConstructionError(f"no curve over GF({f.q}) attains {target} points")


# -- Riemann-Roch basis and evaluation ---------------------------------


@dataclass(frozen=True)
class MonomialFn:
    """x^i y^j with pole of order 2i + 3j at O (j in {0, 1})."""

    i: int
    j: int

    @property
    def pole_order(self) -> int:
        return 2 * self.i + 3 * self.j

    def evaluate(self, c: EllipticCurve, pt: Tuple[int, int]) -> int:
        f = c.field
        x, y = pt
        return f.mul(f.pow(x, self.i), f.pow(y, self.j))


def rr_basis(c: EllipticCurve, k: int) -> List[MonomialFn]:
    """Basis of the functions with pole order <= k at O: the monomial staircase."""
    if k < 1:
        raise ParameterError("divisor degree must be >= 1")
    fns = [MonomialFn(0, 0)]
    fns.extend(MonomialFn(i, 0) for i in range(1, k // 2 + 1))
    fns.extend(MonomialFn(i, 1) for i in range((k - 3) // 2 + 1) if 2 * i + 3 <= k)
    fns.sort(key=lambda m: m.pole_order)
    if len(fns) != k:  # pragma: no cover - the staircase has one gap, at order 1
        raise ConstructionError("Riemann-Roch basis has wrong size")
    return fns


@dataclass(frozen=True)
class EvalArrangement:
    """An ordered evaluation set for the divisor G = kO."""

    curve: EllipticCurve
    points: Tuple[Tuple[int, int], ...]
    k: int

    def __post_init__(self):
        n = len(self.points)
        if not 0 < self.k < n:
            raise ParameterError("need 0 < k < n")
        if len(set(self.points)) != n:
            raise ParameterError("evaluation points must be distinct")
        for p in self.points:
            if p is None:
                raise ParameterError("O cannot be an evaluation point")
            if not self.curve.is_on_curve(p):
                raise ParameterError(f"{p} is not on the curve")

    @property
    def n(self) -> int:
        return len(self.points)


def window_check(a: EvalArrangement) -> bool:
    """True iff no k cyclically consecutive points sum to O."""
    return _window_violations(a.curve, list(a.points), a.k) == []


def _window_violations(c: EllipticCurve, pts: List[Tuple[int, int]], k: int) -> List[int]:
    n = len(pts)
    out = []
    for i in range(n):
        s = ec_sum(c, [pts[(i + t) % n] for t in range(k)])
        if s is None:
            out.append(i)
    return out


def subset_sum_count(a: EvalArrangement) -> int:
    """N(k, O, D): the number of k-subsets of D summing to O.

    Dynamic programming over (subset size, group element), the group being
    indexed by the curve's full point list.
    """
    c = a.curve
    pts = ec_points(c)
    index = {p: i for i, p in enumerate(pts)}
    ng = len(pts)
    k = a.k
    add_row = [[index[ec_add(c, p, q)] for q in pts] for p in pts]
    counts = [[0] * ng for _ in range(k + 1)]
    counts[0][0] = 1  # index 0 is O
    for p in a.points:
        pi = index[p]
        row = add_row[pi]
        for size in range(k, 0, -1):
            prev = counts[size - 1]
            cur = counts[size]
            for g in range(ng):
                cnt = prev[g]
                if cnt:
                    cur[row[g]] += cnt
    return counts[k][0]


def generator_matrix(a: EvalArrangement) -> CodeMatrix:
    """k x n evaluation matrix of the staircase basis at the arranged points."""
    c = a.curve
    rows = [[fn.evaluate(c, p) for p in a.points] for fn in rr_basis(c, a.k)]
    m = CodeMatrix.from_rows(c.field, rows)
    if rank(m) != a.k:
        raise ConstructionError("evaluation matrix is rank deficient")
    return m


# -- arrangement -------------------------------------------------------


def _paired_points(c: EllipticCurve) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]:
    """Non-identity points as (paired list, 2-torsion list).

    The paired list P_1, P_2, ... places each point's negative adjacently,
    taking points in ascending coordinate order; P_{2i-1} + P_{2i} = O.
    """
    pts = [p for p in ec_points(c) if p is not None]
    used = set()
    flat: List[Tuple[int, int]] = []
    torsion: List[Tuple[int, int]] = []
    for p in pts:
        if p in used:
            continue
        np_ = ec_neg(c, p)
        if np_ == p:
            torsion.append(p)
            used.add(p)
        else:
            flat.extend((p, np_))
            used.add(p)
            used.add(np_)
    return flat, torsion


def _step1_sequence(
    run: List[Tuple[int, int]],
    specials: List[Tuple[int, int]],
    k: int,
) -> List[Tuple[int, int]]:
    """Thread a perfectly paired run so every k-window cuts a pair.

    ``run`` is pair-tiled (run[2i] + run[2i+1] = O); ``specials`` are the one
    or two unpaired points.  Layout: k-1 run points, then after every further
    k run points one landmark (drawn from the top of the run, then the
    specials), with the leftover run points and the last special at the end.
    """
    n = len(run) + len(specials)
    s, r = divmod(n, k + 1)
    if s < 1:
        raise ConstructionError("window length exceeds arrangement length")
    sp1 = specials[0] if len(specials) == 2 else None
    sp2 = specials[-1]
    need = s - 1
    # regular landmarks come from the high end of the run
    landmarks = [run[len(run) - 1 - t] for t in range(need)]
    body = run[: len(run) - need]
    seq: List[Tuple[int, int]] = []
    seq.extend(body[: k - 1])
    pos = k - 1
    for j in range(need):
        seq.append(landmarks[j])
        seq.extend(body[pos : pos + k])
        pos += k
    if sp1 is not None:
        seq.append(sp1)
        seq.extend(body[pos : pos + r])
        pos += r
        seq.append(sp2)
    else:
        # with a single unpaired point the tail behind it is one longer
        seq.append(sp2)
        seq.extend(body[pos : pos + r + 1])
        pos += r + 1
    if pos != len(body) or len(seq) != n:  # pragma: no cover - accounting guard
        raise ConstructionError("step-1 arrangement miscount")
    return seq


def _switch_pass(c: EllipticCurve, seq: List[Tuple[int, int]], k: int) -> None:
    """One pass of the SWITCH repairs: a window summing to O swaps its first
    element with the predecessor (or its last with the successor when the
    window wraps past the seam), in place."""
    n = len(seq)
    for start in range(n):
        window = [(start + t) % n for t in range(k)]
        if ec_sum(c, [seq[i] for i in window]) is not None:
            continue
        last = window[-1]
        if last < start:  # wrapped window: push its tail forward
            i, j = last, (last + 1) % n
        else:
            i, j = (start - 1) % n, start
        seq[i], seq[j] = seq[j], seq[i]


def _local_rearrange(
    c: EllipticCurve, seq: List[Tuple[int, int]], k: int, attempts: int
) -> Optional[List[Tuple[int, int]]]:
    """Bounded breadth-first search over adjacent transpositions."""
    n = len(seq)
    start = tuple(seq)
    seen = {start}
    queue = deque([start])
    spent = 0
    while queue and spent < attempts:
        cur = queue.popleft()
        lst = list(cur)
        violations = _window_violations(c, lst, k)
        if not violations:
            return lst
        first = violations[0]
        touched = [(first + t) % n for t in range(-1, k)]
        for i in touched:
            j = (i + 1) % n
            lst[i], lst[j] = lst[j], lst[i]
            nxt = tuple(lst)
            lst[i], lst[j] = lst[j], lst[i]
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
                spent += 1
    return None


def arrange(c: EllipticCurve, n: int, k: int) -> EvalArrangement:
    """An evaluation arrangement of n points with no k-window summing to O."""
    f = c.field
    if not 0 < k < n:
        raise ParameterError("need 0 < k < n")
    if n - k < 5:
        raise ParameterError("pair distance below 7 belongs to the other constructions")
    flat, torsion = _paired_points(c)
    N = len(flat) + len(torsion) + 1
    if n > N - 3:
        raise ParameterError(f"length {n} exceeds N - 3 = {N - 3} for this curve")

    def build() -> List[Tuple[int, int]]:
        if k % 2 == 1:
            if n % 2 == 0:
                if n <= len(flat):
                    return flat[len(flat) - n :]
                # only with three 2-torsion points: complete pairs plus two
                # torsion points whose sum is the third, not O
                if len(torsion) >= 2 and n <= len(flat) + 2:
                    return flat[len(flat) - (n - 2) :] + torsion[:2]
                raise ConstructionError("no even-length seed available")
            # odd n: complete pairs plus one dangling point
            if torsion:
                return flat[len(flat) - (n - 1) :] + torsion[:1]
            return flat[: n]  # pair run with a dangling pair-first at the end
        # k even: Step 1 threading with one or two specials
        if n % 2 == 0:
            if torsion:
                run = flat[len(flat) - (n - 2) :]
                # one special is a pair-first whose partner is dropped
                rest = flat[: len(flat) - (n - 2)]
                if rest:
                    sp1 = rest[-2]
                else:
                    raise ConstructionError("no broken pair available")
                return _step1_sequence(run, [sp1, torsion[0]], k)
            run = flat[: n - 2]
            sp1 = flat[n - 2]
            sp2 = flat[n]
            return _step1_sequence(run, [sp1, sp2], k)
        # k even, odd n
        if torsion:
            run = flat[len(flat) - (n - 1) :]
            return _step1_sequence(run, [torsion[0]], k)
        run = flat[: n - 1]
        return _step1_sequence(run, [flat[n - 1]], k)

    seq = build()
    if _window_violations(c, seq, k):
        _switch_pass(c, seq, k)
    if _window_violations(c, seq, k):
        repaired = _local_rearrange(c, seq, k, REARRANGE_ATTEMPTS)
        if repaired is None:
            raise ConstructionError(
                f"no valid arrangement found for n={n}, k={k} over GF({f.q})"
            )
        seq = repaired
    arrangement = EvalArrangement(c, tuple(seq), k)
    if not window_check(arrangement):  # pragma: no cover - guarded above
        raise ConstructionError("arrangement failed the window check")
    return arrangement


def construct_ec(f: FieldSpec, n: int, d: int):
    """Linear MDS (n, d+2)_q symbol-pair code from a maximal elliptic curve.

    The certificate route is algebraic: with the window check satisfied, the
    code has minimum Hamming distance n-k (when some k-subset of D sums to O)
    or n-k+1 (when none does), and in both cases pair distance exactly d+2
    by the run-length bound and the Singleton ceiling.
    """
    k = n - d
    limit = n_max(f) - 3
    if not 7 <= d + 2 <= n:
        raise ParameterError(f"need 7 <= d+2 <= n, got d+2={d + 2}, n={n}")
    if n > limit:
        raise ParameterError(f"n exceeds N(q) - 3 = {limit}")
    curve = find_maximal_curve(f)
    arrangement = arrange(curve, n, k)
    g = generator_matrix(arrangement)
    h = null_space(g)
    code = LinearCode(h)
    if code.k != k:  # pragma: no cover - rank checked in generator_matrix
        raise ConstructionError("dual dimension mismatch")
    nsolutions = subset_sum_count(arrangement)
    if n > f.q + 1 and nsolutions == 0:
        raise ConstructionError("subset-sum count contradicts the length bound")
    cert = PairCertificate(
        q=f.q,
        n=n,
        d_pair=d + 2,
        dim_exponent=k,
        route=ROUTE_EC,
        ok=True,
        checks={
            "window_check": window_check(arrangement),
            "subset_sum_count": nsolutions,
            "d_H": n - k if nsolutions > 0 else n - k + 1,
        },
    )
    provenance = {
        "construction": "elliptic",
        "curve": list(curve.coefficients()),
        "points": [list(p) for p in arrangement.points],
        "k": k,
    }
    return code, cert, provenance
