"""MDS symbol-pair codes of general pair distance from elliptic curve codes.

Evaluation codes on a maximal curve give [n, k, n-k] or [n, k, n-k+1] codes;
ordering the evaluation points so that no k cyclically consecutive points sum
to the identity promotes them to MDS symbol-pair codes of pair distance
n - k + 2.  The arrangement pairs each point with its negative, threads the
pairs so that windows always cut a pair, patches the tail with the two SWITCH
rules, and clears any window still summing to O by a greedy descent over
adjacent transpositions, each step lowering the count of such windows.
ec_verdict decides the result from the arrangement and h alone, and
`pairmds verify` runs it alone.  check_ec_conditions, the certificate
construct_ec writes, adds the subset-sum count, which settles the Hamming
distance but not the pair distance.

The verdict runs on the field's row kernels.  The generator matrix
evaluates the staircase x^i y^j (j <= 1) of L(kO) in pole order 0, 2, 3,
..., k: its rows are 1, x and y over the arranged points, and from order 4
on the row of order t is the row of order t - 2 times the row of
x-coordinates, so no element is raised to a power.  h g^T = 0 is checked
by the field's vanishing-product kernel (``FieldSpec.vanishing``), each row
of h one pass over g's packed columns.  The column of g at a point P is
P's staircase values, and at k they are the first k of its values at any
larger k.  So the columns of every affine point of a curve are packed once
(``_PackedStaircase``, cached per curve per process) at the largest k asked
so far, and a verdict gathers its points' columns and keeps the first k
slots of each.  The verdict never eliminates g: Riemann-Roch gives rank
g = k, and columns 0 ... k - 1 as a basis once the window check has passed,
so rank h = n - k is read from the (n - k) x (n - k) block of h on the last
n - k columns alone.

The pairing of each point with its negative, the window sums and the
subset-sum count (the counts of every subset size packed into one int per
group element, so a point is one C-level pass over the group) run on one
group table per curve (``_group``, cached per process): the N x N addition
table and the negation table over the curve's one point list, O first, each
point named by its index in ``_point_index``.  Every entry is computed once
by ``ec_neg`` and by ``ec_add``'s formulas without its membership tests,
since ``ec_points`` lists only points on the curve.  The point index is
cached apart from the table, so an arrangement checks its points by one
dict lookup each without building the table.  Since the table grows as
N^2, curves are supported over fields of order at most ``MAX_CURVE_ORDER``
= 2^10, the fields the maximal-curve search covers.

The window sums of a sequence are one array (``_window_sums``: one running
sum slides once along it), and the repairs keep that array current.  A
transposition of neighbours (``_swap``) changes only the two windows that
hold one of the two points, so it updates two sums.  SWITCH reads each
window's sum from the array as the earlier swaps left it, and the descent
tries a transposition by a swap, a count of the zero sums, and the swap
back.

The curve is y^2 + b(x) y = g(x) + a6, and the rows of g(x) = x^3 + a2 x^2 +
a4 x and b(x) = a1 x + a3 over every x (``_curve_rows``) serve both the
point lister and the counter, in every characteristic.  ``ec_points`` takes
the points at x as the y where the row y^2 + b(x) y equals g(x) + a6.  The
maximal-curve search counts without listing: for each prefix (a1, a2, a3,
a4), ``_point_counts`` yields the count of every nonsingular a6, ascending,
skipping the zeros of the discriminant's row over every a6.  In odd
characteristic a count is one gather of the field's 1 + chi table, shifted
to a6, at the row of g (plus b^2/4 for a general prefix); in characteristic
2 it is one XOR and one ``int.bit_count`` of trace bitmasks, the masks of
every a6 cached for one (a1, a3) at a time.  A curve is built only when its
count reaches N(q); ``ec_point_count`` is the same counter at one a6.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import ConstructionError, ParameterError
from .gf import FieldSpec, absolute_trace
from .linalg import CodeMatrix, LinearCode, null_space, rank_of_vectors
from .pairmetric import ROUTE_EC, PairCertificate

ECPoint = Optional[Tuple[int, int]]  # None is the identity O at infinity

MAX_CURVE_ORDER = 1 << 10


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
        c2, c1, c0 = _discriminant_in_a6(f, self.a1, self.a2, self.a3, self.a4)
        return f.add(f.mul(f.add(f.mul(c2, self.a6), c1), self.a6), c0)

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


def _discriminant_in_a6(f: FieldSpec, a1: int, a2: int, a3: int, a4: int) -> Tuple[int, int, int]:
    """(c2, c1, c0) with discriminant c2 a6^2 + c1 a6 + c0 for the prefix
    (a1, a2, a3, a4).

    Delta = 9 b2 b4 b6 - b2^2 b8 - 8 b4^3 - 27 b6^2, where only b6 = a3^2 +
    4 a6 and b8 = b2 a6 + e, e = a2 a3^2 - a1 a3 a4 - a4^2, involve a6.
    """
    add, sub, mul, smul = f.add, f.sub, f.mul, f.smul
    b2 = add(mul(a1, a1), smul(4, a2))
    b4 = add(smul(2, a4), mul(a1, a3))
    s3 = mul(a3, a3)
    e = sub(mul(a2, s3), add(mul(a1, mul(a3, a4)), mul(a4, a4)))
    b2b4 = mul(b2, b4)
    c2 = f.scalar(-432)
    c1 = sub(smul(36, b2b4), add(mul(b2, mul(b2, b2)), smul(216, s3)))
    c0 = sub(
        smul(9, mul(b2b4, s3)),
        add(add(mul(mul(b2, b2), e), smul(8, mul(b4, mul(b4, b4)))), smul(27, mul(s3, s3))),
    )
    return c2, c1, c0


def ec_neg(c: EllipticCurve, pt: ECPoint) -> ECPoint:
    if pt is None:
        return None
    f = c.field
    x, y = pt
    return (x, f.neg(f.add(y, f.add(f.mul(c.a1, x), c.a3))))


def ec_add(c: EllipticCurve, p: ECPoint, q: ECPoint) -> ECPoint:
    """Chord-tangent group law with identity O (valid in any characteristic)."""
    for pt in (p, q):
        if not c.is_on_curve(pt):
            raise ParameterError(f"point {pt} is not on the curve")
    return _chord_tangent(c, p, q)


def _chord_tangent(c: EllipticCurve, p: ECPoint, q: ECPoint) -> ECPoint:
    """p + q for points already known to be on the curve."""
    f = c.field
    if p is None:
        return q
    if q is None:
        return p
    x1, y1 = p
    x2, y2 = q
    if x1 == x2 and q == ec_neg(c, p):
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


@dataclass(frozen=True)
class _GroupTable:
    """The group law on a curve's rational points, each point named by its
    index in ``_point_index``; index 0 is O."""

    add: List[List[int]]  # add[i][j] = index of P_i + P_j
    neg: List[int]  # neg[i] = index of -P_i


class _CountTables:
    """Per-field tables for counting the points of every a6 of a prefix.

    In characteristic 2, ``trace_bit[v]`` is Tr(v) as the digit '0' or '1',
    so a row's traces read as one integer bitmask.  In odd characteristic,
    ``roots[v]`` is the number of y with y^2 = v, that is 1 + chi(v), and
    ``step[a6]`` (a6 >= 1) takes a row r over the field's elements to the
    row v -> r[v + d], d the field difference of the codes a6 and a6 - 1:
    below the lowest nonzero base-p digit j of a6 every digit of a6 - 1 is
    p - 1, so d = 1 + p + ... + p^j, one of a translations.
    """

    def __init__(self, f: FieldSpec):
        p = f.p
        xs = f.elements()
        if p == 2:
            self.trace_bit = ["01"[absolute_trace(f, x)] for x in xs]
            return
        self.roots = [0] * f.q
        for s in f.mul_rows(xs, xs):
            self.roots[s] += 1
        shifts = []
        u = 0
        for j in range(f.a):
            u += p**j
            shifts.append(operator.itemgetter(*f.add_rows(itertools.repeat(u), xs)))
        self.step: List[Optional[operator.itemgetter]] = [None]
        for a6 in range(1, f.q):
            j = 0
            while a6 % p == 0:
                a6 //= p
                j += 1
            self.step.append(shifts[j])


@functools.lru_cache(maxsize=None)
def _count_tables(f: FieldSpec) -> _CountTables:
    return _CountTables(f)


def _curve_rows(f: FieldSpec, a1: int, a2: int, a3: int, a4: int) -> Tuple[List[int], List[int]]:
    """The rows over every x of g(x) = x^3 + a2 x^2 + a4 x and b(x) = a1 x +
    a3, so that the curve of a6 is y^2 + b(x) y = g(x) + a6.  b is the
    constant a3 when a1 = 0."""
    rep = itertools.repeat
    xs = f.elements()
    g = f.mul_rows(f.add_rows(f.mul_rows(f.add_rows(xs, rep(a2)), xs), rep(a4)), xs)
    b = f.add_rows(f.mul_rows(rep(a1), xs), rep(a3)) if a1 else [a3] * f.q
    return g, b


def ec_points(c: EllipticCurve) -> List[ECPoint]:
    """O followed by all affine rational points in ascending (x, y) order."""
    f = c.field
    ys = f.elements()
    squares = f.mul_rows(ys, ys)
    pts: List[ECPoint] = [None]
    for x, gx, bx in zip(ys, *_curve_rows(f, c.a1, c.a2, c.a3, c.a4)):
        lhs = f.add_rows(squares, f.mul_rows(itertools.repeat(bx), ys)) if bx else squares
        rhs = f.add(gx, c.a6)
        pts.extend((x, y) for y in itertools.compress(ys, map(rhs.__eq__, lhs)))
    return pts


def _check_curve_order(f: FieldSpec) -> None:
    if f.q > MAX_CURVE_ORDER:
        raise ParameterError(f"elliptic curves are supported for q <= {MAX_CURVE_ORDER}")


@functools.lru_cache(maxsize=None)
def _point_index(c: EllipticCurve) -> Dict[ECPoint, int]:
    """Each rational point's position in ``ec_points(c)``; O is 0."""
    _check_curve_order(c.field)
    return {p: i for i, p in enumerate(ec_points(c))}


def _indices(c: EllipticCurve, pts: Sequence[ECPoint]) -> List[int]:
    return list(map(_point_index(c).__getitem__, pts))


@functools.lru_cache(maxsize=None)
def _group(c: EllipticCurve) -> _GroupTable:
    index = _point_index(c)
    add = [[index[_chord_tangent(c, p, r)] for r in index] for p in index]
    neg = [index[ec_neg(c, p)] for p in index]
    return _GroupTable(add, neg)


def ec_point_count(c: EllipticCurve) -> int:
    """The number of rational points, O included: c's a6 read from one
    ``_point_counts`` pass over every a6 of its prefix.

    Limited to the fields of the curve search, since in characteristic 2 it
    builds q trace masks of q bits each.
    """
    _check_curve_order(c.field)
    return dict(_point_counts(c.field, c.a1, c.a2, c.a3, c.a4))[c.a6]


@functools.lru_cache(maxsize=1)
def _trace_masks(f: FieldSpec, a1: int, a3: int) -> Tuple[List[int], List[int]]:
    """Over GF(2^a): the row w of (a1 x + a3)^-2 over every x (0 where
    a1 x + a3 = 0) and, for every a6, the bitmask over x of Tr(a6 w_x).

    Tr is F_2-linear, so the mask of a6 is the XOR of the masks of its bits:
    a rows are traced and the other masks are XORs.  One cache slot: the
    search counts every a4 of one (a1, a2, a3) before it moves on, and one
    mask set is q ints of q bits.
    """
    tab = _count_tables(f)
    inv = [f.inv(v) if v else 0 for v in _curve_rows(f, a1, 0, a3, 0)[1]]
    w = f.mul_rows(inv, inv)
    masks = [0]
    bit = 1
    while bit < f.q:
        m = _trace_mask(tab, f.mul_rows(itertools.repeat(bit), w))
        masks += [v ^ m for v in masks]
        bit <<= 1
    return w, masks


def _trace_mask(tab: _CountTables, row: Sequence[int]) -> int:
    """The bits Tr(v) of a row, its first entry the most significant."""
    return int("".join(map(tab.trace_bit.__getitem__, row)), 2)


def _point_counts(f: FieldSpec, a1: int, a2: int, a3: int, a4: int) -> Iterator[Tuple[int, int]]:
    """(a6, number of rational points) for every a6, ascending, that makes
    y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 nonsingular.

    The discriminant c2 a6^2 + c1 a6 + c0 is evaluated over every a6 as one
    row, and an a6 where it is 0 is never counted; a prefix singular for
    every a6 yields nothing.  g and b are the prefix's ``_curve_rows``.

    In odd characteristic (y + b/2)^2 = g + b^2/4 + a6, so with h = g + b^2/4
    the count is 1 + sum over x of window[h(x)], window[v] = roots[v + a6]:
    one gather of the window at the row h, the window itself moved from
    a6 - 1 to a6 by one ``step`` gather.

    In characteristic 2 a point with b(x) = 0 has one y, the square root.
    Where b != 0, y = b z turns the equation into z^2 + z = (g + a6) w,
    w = b^-2, which has two solutions when Tr(g w) = Tr(a6 w) and none
    otherwise.  So the count is 1 + 2q - #{b = 0} minus twice the bits where
    the trace masks of g w and of a6 w differ: one XOR and one
    ``int.bit_count`` per a6.
    """
    c2, c1, c0 = _discriminant_in_a6(f, a1, a2, a3, a4)
    if not (c2 or c1 or c0):
        return
    rep = itertools.repeat
    xs = f.elements()
    # c2 = -432 is 0 in characteristics 2 and 3
    lead = f.add_rows(f.mul_rows(rep(c2), xs), rep(c1)) if c2 else rep(c1)
    disc = f.add_rows(f.mul_rows(lead, xs), rep(c0))
    tab = _count_tables(f)
    if f.p == 2:
        # b enters only through w = b^-2, which comes with the masks
        g = _curve_rows(f, 0, a2, 0, a4)[0]
        w, masks = _trace_masks(f, a1, a3)
        gm = _trace_mask(tab, f.mul_rows(g, w))
        base = 2 * f.q + 1 - w.count(0)
        for a6 in range(f.q):
            if disc[a6]:
                yield a6, base - 2 * (gm ^ masks[a6]).bit_count()
        return
    g, b = _curve_rows(f, a1, a2, a3, a4)
    if a1 or a3:
        g = f.add_rows(g, f.mul_rows(f.mul_rows(b, b), rep(f.inv(f.scalar(4)))))
    gather = operator.itemgetter(*g)
    window = tab.roots
    for a6 in range(f.q):
        if a6:
            window = tab.step[a6](window)
        if disc[a6]:
            yield a6, 1 + sum(gather(window))


def n_max(f: FieldSpec) -> int:
    """Hasse-Deuring maximum q + floor(2*sqrt(q)) + delta(q) of rational points."""
    q = f.q
    fl = math.isqrt(4 * q)
    delta = 0 if (f.a >= 3 and f.a % 2 == 1 and fl % f.p == 0) else 1
    return q + fl + delta


@functools.lru_cache(maxsize=None)
def find_maximal_curve(f: FieldSpec) -> EllipticCurve:
    """First curve in ascending coefficient order attaining n_max(q).

    Scans the general form in characteristic 2 and y^2 = x^3 + a2 x^2 + a4 x
    + a6 in odd characteristic, which finds the general scan's first curve.
    Each prefix (a1, a2, a3, a4) counts all its a6 in one ``_point_counts``
    pass, and only the curve found is built.  In characteristic 3 a prefix
    (0, a2, 0, a4) with a2 != 0 is counted only at a4 = 0: x -> x + t,
    t = a4/a2, maps its curves one to one onto those of (0, a2, 0, 0), with
    a6 moved to a6 + t^3 + a2 t^2 + a4 t and the point counts kept, so some
    a4 has a maximal curve exactly when a4 = 0, which comes first, has one.
    """
    _check_curve_order(f)
    target = n_max(f)
    elements = f.elements()
    if f.p == 2:
        # over GF(2^a), a >= 3 odd, a curve with a1 = 0 is supersingular
        # (j = 0) and has trace 0 or +-sqrt(2q), below the maximal trace
        # (floor(2 sqrt q) at a = 3, at least floor(2 sqrt q) - 1 above), so
        # none reaches n_max and skipping them keeps the first maximal curve
        a1s = range(1, f.q) if f.a >= 3 and f.a % 2 else elements
        prefixes = itertools.product(a1s, elements, elements, elements)
    else:
        # y -> y - (a1 x + a3)/2 removes the cross terms, so every curve is
        # isomorphic to one with a1 = a3 = 0
        # over GF(3^a), a >= 3 odd, a curve with a2 = 0 is supersingular
        # (j = 0) and has trace 0 or +-sqrt(3q), below the maximal trace, as
        # in characteristic 2; with a2 != 0 only a4 = 0 is counted
        skip = f.p == 3 and f.a >= 3 and f.a % 2
        prefixes = (
            (0, a2, 0, a4)
            for a2 in (range(1, f.q) if skip else elements)
            for a4 in ((0,) if a2 and f.p == 3 else elements)
        )
    for prefix in prefixes:
        for a6, count in _point_counts(f, *prefix):
            if count == target:
                return EllipticCurve(f, *prefix, a6)
    raise ConstructionError(f"no curve over GF({f.q}) attains {target} points")


# -- Riemann-Roch evaluation -------------------------------------------


@dataclass(frozen=True)
class EvalArrangement:
    """An ordered evaluation set for the divisor G = kO: distinct affine
    rational points, each checked against the curve's ``_point_index``, so
    curves over fields above ``MAX_CURVE_ORDER`` are rejected."""

    curve: EllipticCurve
    points: Tuple[Tuple[int, int], ...]
    k: int

    def __post_init__(self):
        n = len(self.points)
        if not 0 < self.k < n:
            raise ParameterError("need 0 < k < n")
        if len(set(self.points)) != n:
            raise ParameterError("evaluation points must be distinct")
        index = _point_index(self.curve)
        for p in self.points:
            if p is None:
                raise ParameterError("O cannot be an evaluation point")
            if p not in index:
                raise ParameterError(f"{p} is not on the curve")

    @property
    def n(self) -> int:
        return len(self.points)


def window_check(a: EvalArrangement) -> bool:
    """True iff no k cyclically consecutive points sum to O."""
    return _window_violations(a.curve, list(a.points), a.k) == []


def _window_violations(c: EllipticCurve, pts: List[Tuple[int, int]], k: int) -> List[int]:
    """Starts i of the cyclic k-windows pts[i], ..., pts[i+k-1] that sum to O."""
    return [i for i, s in enumerate(_window_sums(_group(c), _indices(c, pts), k)) if s == 0]


def _window_sums(g: _GroupTable, idx: Sequence[int], k: int) -> List[int]:
    """The sums of the n cyclic k-windows of the points idx (as indices),
    entry i the sum of idx[i], ..., idx[i+k-1] (mod n).

    One running sum slides along the sequence: each step adds the negative
    of the point leaving the window and the point entering it.
    """
    add, neg = g.add, g.neg
    n = len(idx)
    s = 0
    for t in range(k):
        s = add[s][idx[t % n]]
    sums = []
    for i in range(n):
        sums.append(s)
        s = add[add[s][neg[idx[i]]]][idx[(i + k) % n]]
    return sums


def _swap(g: _GroupTable, seq: List, idx: List[int], sums: List[int], i: int, k: int) -> None:
    """Transpose positions i and j = i + 1 (mod n) of seq and of its indices
    idx, in place, keeping sums the ``_window_sums`` of idx.  Only two
    windows hold one of the two points: the window ending at i, which
    trades idx[i] for idx[j], and the window starting at j, which trades
    idx[j] for idx[i]; every other window holds both or neither.  A swap is
    its own inverse."""
    j = (i + 1) % len(idx)
    a, b = idx[i], idx[j]
    end = (i - k + 1) % len(idx)
    sums[end] = g.add[g.add[sums[end]][b]][g.neg[a]]
    sums[j] = g.add[g.add[sums[j]][a]][g.neg[b]]
    seq[i], seq[j] = seq[j], seq[i]
    idx[i], idx[j] = b, a


def subset_sum_count(a: EvalArrangement) -> int:
    """N(k, O, D): the number of k-subsets of D summing to O.

    Dynamic programming over (subset size, group element), the group being
    indexed by the curve's full point list, with the sizes packed into one
    int per element: slot s of ``counts[t]`` holds the number of subsets of
    size lo + s of the points so far that sum to t.  Only the sizes lo .. top
    that can still reach k are kept: after the first m points,
    lo = max(0, k - (n - m)) and top = min(k, m).  So a kept count is
    C(m, s) at most, with s <= k and m - s <= n - k, and C(m, s) = C(m, j)
    <= C(n, j) for j = min(s, m - s) <= min(k, n - k) <= n / 2: slots
    of the bit length of C(n, min(k, n - k)) never carry into the next.

    A point P adds to each count the count one size lower at t - P, for all
    t in one C-level pass: the itemgetter of the group row of -P reads
    counts[t - P] for every t, and a left shift moves them one size up.
    When the lowest size drops out, the untranslated counts move one slot
    down instead, and once top is k the size k + 1 is masked off.
    """
    g = _group(a.curve)
    n, k = a.n, a.k
    width = math.comb(n, min(k, n - k)).bit_length()
    rep = itertools.repeat
    counts = [0] * len(g.neg)
    counts[0] = 1  # the empty subset; index 0 is O
    lo = top = 0
    for i, pi in enumerate(_indices(a.curve, a.points)):
        moved = operator.itemgetter(*g.add[g.neg[pi]])(counts)
        if lo < k - (n - 1 - i):
            lo += 1
            counts = map(operator.add, map(operator.rshift, counts, rep(width)), moved)
        else:
            counts = map(operator.add, counts, map(operator.lshift, moved, rep(width)))
        if top < k:
            top += 1
        else:
            counts = map(operator.and_, counts, rep((1 << width * (k + 1 - lo)) - 1))
        counts = list(counts)
    return counts[0]  # lo = top = k


def _staircase_rows(f: FieldSpec, pts: Sequence[Tuple[int, int]], k: int) -> List[List[int]]:
    """The k rows of g at the points pts as plain lists: the staircase
    x^i y^j (j <= 1) in pole order 0, 2, 3, ..., k: 1, x, y, then from order
    4 on row t is row t - 2 times the x row, one ``mul_rows`` pass each.
    Every entry is a product of coordinates of curve points, so a field
    element."""
    xs = [p[0] for p in pts]
    rows = [[1] * len(pts), xs, [p[1] for p in pts]]
    while len(rows) < k:
        rows.append(f.mul_rows(rows[-2], xs))
    return rows[:k]


def generator_matrix(a: EvalArrangement) -> CodeMatrix:
    """k x n evaluation matrix of L(kO) at the arranged points, the rows of
    ``_staircase_rows``."""
    f = a.curve.field
    return CodeMatrix(f, tuple(map(tuple, _staircase_rows(f, a.points, a.k))))


class _PackedStaircase:
    """g's columns at every affine point of one curve, packed for the
    vanishing-product kernel (``FieldSpec.pack_columns``) at the largest k
    asked so far: ``tables[b][i]`` is the packed column of point i of
    ``_point_index`` (entry 0, for O, is never read).

    The slot width for the curve's N - 1 affine points serves every
    arrangement on it.  The columns are packed little-endian on every host,
    so a smaller k keeps the first k slots of each column, its low bits; a
    larger k packs the staircase again at that k.
    """

    def __init__(self, c: EllipticCurve):
        self.curve = c
        self.k = 0
        self.stride = 0
        self.tables: List[List[int]] = []

    def columns(self, a: EvalArrangement) -> List[List[int]]:
        """The packed columns of the k rows of g at a's points, in a's order,
        a list per digit table, at ``stride``."""
        f, k = self.curve.field, a.k
        if k > self.k:
            affine = list(_point_index(self.curve))[1:]
            tables, self.stride = f.pack_columns(_staircase_rows(f, affine, k))
            self.tables = [[0, *table] for table in tables]
            self.k = k
        idx = _indices(self.curve, a.points)
        mask = (1 << 8 * self.stride * k) - 1  # the low bits hold the first k slots
        return [[table[i] & mask for i in idx] for table in self.tables]


@functools.lru_cache(maxsize=None)
def _packed_staircase(c: EllipticCurve) -> _PackedStaircase:
    return _PackedStaircase(c)


# -- arrangement -------------------------------------------------------


def _paired_points(c: EllipticCurve) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]:
    """Non-identity points as (paired list, 2-torsion list).

    The paired list P_1, P_2, ... places each point's negative adjacently,
    taking points in ascending coordinate order; P_{2i-1} + P_{2i} = O.
    """
    pts, neg = list(_point_index(c)), _group(c).neg
    flat: List[Tuple[int, int]] = []
    torsion: List[Tuple[int, int]] = []
    for i in range(1, len(pts)):
        j = neg[i]
        if j == i:
            torsion.append(pts[i])
        elif j > i:  # a smaller j placed point i as its partner already
            flat.extend((pts[i], pts[j]))
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
    window wraps past the seam), in place.  The windows are read in order
    from one ``_window_sums`` array that each ``_swap`` keeps current, so a
    window reads the sequence as the earlier swaps left it."""
    g = _group(c)
    idx = _indices(c, seq)
    sums = _window_sums(g, idx, k)
    n = len(seq)
    for start in range(n):
        if not sums[start]:
            last = (start + k - 1) % n
            # a wrapped window pushes its tail forward
            _swap(g, seq, idx, sums, last if last < start else (start - 1) % n, k)


def _local_rearrange(c: EllipticCurve, seq: List[Tuple[int, int]], k: int) -> bool:
    """Clear the windows summing to O by a greedy descent over adjacent
    transpositions, in place.  A step tries the first such window's k + 1
    transpositions, (first + t) % n with its successor for t = -1 ... k - 1,
    in order, and takes the first that clears every window, else the first
    that leaves fewer.  Every step lowers the count of windows summing to O,
    so the loop ends within n steps; False means no transposition lowered it.
    """
    g = _group(c)
    idx = _indices(c, seq)
    sums = _window_sums(g, idx, k)
    n = len(seq)
    while 0 in sums:
        count, first, best = sums.count(0), sums.index(0), None
        for i in ((first + t) % n for t in range(-1, k)):
            _swap(g, seq, idx, sums, i, k)
            after = sums.count(0)
            _swap(g, seq, idx, sums, i, k)
            if not after:
                best = i
                break
            if best is None and after < count:
                best = i
        if best is None:
            return False
        _swap(g, seq, idx, sums, best, k)
    return True


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

    # len(flat) is even and len(torsion) <= 3, so n <= N - 3 =
    # len(flat) + len(torsion) - 2 bounds every slice below: an even n by
    # len(flat), an odd n by len(flat) + 1, any n by len(flat) - 2 without torsion
    def build() -> List[Tuple[int, int]]:
        if k % 2 == 1:
            if n % 2 == 0:
                return flat[len(flat) - n :]  # even n <= len(flat)
            # odd n: complete pairs plus one dangling point
            if torsion:
                return flat[len(flat) - (n - 1) :] + torsion[:1]  # n - 1 <= len(flat)
            return flat[: n]  # no torsion: n <= len(flat) - 2
        # k even: Step 1 threading with one or two specials
        if n % 2 == 0:
            if torsion:
                run = flat[len(flat) - (n - 2) :]  # even n <= len(flat)
                # one special is a pair-first whose partner is dropped
                sp1 = flat[len(flat) - n]  # even n <= len(flat)
                return _step1_sequence(run, [sp1, torsion[0]], k)
            run = flat[: n - 2]
            sp1 = flat[n - 2]
            sp2 = flat[n]  # no torsion: n <= len(flat) - 2
            return _step1_sequence(run, [sp1, sp2], k)
        # k even, odd n
        if torsion:
            run = flat[len(flat) - (n - 1) :]  # n - 1 <= len(flat)
            return _step1_sequence(run, [torsion[0]], k)
        run = flat[: n - 1]
        return _step1_sequence(run, [flat[n - 1]], k)  # no torsion: n <= len(flat) - 2

    seq = build()
    if _window_violations(c, seq, k):
        _switch_pass(c, seq, k)
        if not _local_rearrange(c, seq, k):  # pragma: no cover - a bug guard
            raise ConstructionError(
                f"no valid arrangement found for n={n}, k={k} over GF({f.q})"
            )
    return EvalArrangement(c, tuple(seq), k)


def ec_verdict(a: EvalArrangement, h: CodeMatrix) -> PairCertificate:
    """Decide whether h is the parity check of an MDS symbol-pair code of
    pair distance n - k + 2 on the arrangement a, whose generator matrix g is
    a's staircase (``_staircase_rows``).

    The checks: no k cyclically consecutive points of ``a`` sum to O; h has n
    columns and h g^T = 0; h has full row rank n - k.  These decide the pair
    distance: the evaluation code has minimum Hamming distance n - k or
    n - k + 1, and in both cases pair distance n - k + 2 by the run-length
    bound and the Singleton ceiling.  Which of the two Hamming distances
    holds is the certificate's business (``check_ec_conditions``); the
    verdict never reads it, so ``pairmds verify`` calls this alone.

    h g^T = 0 is read from g's columns as the curve's ``_PackedStaircase``
    holds them, packed once per curve and k: the verdict gathers a's
    columns and keeps their first k slots, and each row of h is one pass of
    the vanishing-product kernel over them.

    g is never eliminated: Riemann-Roch gives what its elimination would.
    The points are distinct and affine, and a nonzero f in L(kO) has at most
    k zeros, so evaluation at n > k points is injective and rank g = k.  f
    vanishes at k distinct points P_1 ... P_k exactly when div f = P_1 + ...
    + P_k - kO, and a principal divisor sums to O in the group, so columns
    0 ... k - 1 of g are independent whenever P_1 + ... + P_k != O: when the
    window check passes, since window 0 is among its windows.  Then the
    rank of h is proven on F, the last n - k columns: a nonsingular block
    h_F shows that h has full row rank, and when h g^T = 0 the converse
    holds too, since a vector v with g v^T = 0 and v_F = 0 vanishes on
    columns 0 ... k - 1 as well, so v -> v_F is injective on the rows'
    span.  So rank h is taken only when the window check passed and h g^T =
    0, by eliminating h_F; when it is n - k, F is recorded as h's column
    basis.

    At k = 1 the code is the constant words, and the nonzero ones have pair
    weight n < n - k + 2, so, as ``check_mds_conditions`` does for
    r > n - 2, the verdict raises ParameterError for k < 2.
    """
    f = a.curve.field
    n, k = a.n, a.k
    if k < 2:
        raise ParameterError(f"the elliptic verdict needs k >= 2, got k={k}")
    window_ok = window_check(a)
    product_zero = False
    if h.cols == n:
        staircase = _packed_staircase(a.curve)
        columns = staircase.columns(a)
        product_zero = all(map(all, f.vanishing(h.entries, columns, k, staircase.stride)))
    rank_ok = False
    if window_ok and product_zero and h.rows == n - k:
        rank_ok = rank_of_vectors(f, [row[k:] for row in h.entries]) == n - k
        if rank_ok:
            h.record_column_basis(range(k, n))
    failed = None
    if not window_ok:
        failed = "window-check"
    elif not product_zero:
        failed = "parity-generator-product"
    elif not rank_ok:
        failed = "parity-rank"
    return PairCertificate(
        q=f.q,
        n=n,
        d_pair=n - k + 2,
        dim_exponent=k,
        route=ROUTE_EC,
        ok=failed is None,
        failed_condition=failed,
        checks={"window_check": window_ok},
    )


def check_ec_conditions(a: EvalArrangement, h: CodeMatrix) -> PairCertificate:
    """The certificate that ``construct`` writes: ``ec_verdict``, plus the
    subset-sum count N(k, O, D) and the minimum Hamming distance it decides,
    n - k when some k-subset of D sums to O and n - k + 1 when none does."""
    cert = ec_verdict(a, h)
    nsolutions = subset_sum_count(a)
    n, k = a.n, a.k
    cert.checks.update(subset_sum_count=nsolutions, d_H=n - k if nsolutions > 0 else n - k + 1)
    return cert


def construct_ec(f: FieldSpec, n: int, d: int):
    """Linear MDS (n, d+2)_q symbol-pair code from a maximal elliptic curve,
    certified by check_ec_conditions."""
    k = n - d
    limit = n_max(f) - 3
    if not 7 <= d + 2 <= n:
        raise ParameterError(f"need 7 <= d+2 <= n, got d+2={d + 2}, n={n}")
    if n > limit:
        raise ParameterError(f"n exceeds N(q) - 3 = {limit}")
    curve = find_maximal_curve(f)
    arrangement = arrange(curve, n, k)
    h = null_space(generator_matrix(arrangement))
    cert = check_ec_conditions(arrangement, h)
    if not cert.ok:
        raise ConstructionError(
            f"elliptic construction failed verification at q={f.q}, n={n}: {cert.failed_condition}"
        )
    if n > f.q + 1 and cert.checks["subset_sum_count"] == 0:
        raise ConstructionError("subset-sum count contradicts the length bound")
    provenance = {
        "construction": "elliptic",
        "curve": list(curve.coefficients()),
        "points": [list(p) for p in arrangement.points],
        "k": k,
    }
    return LinearCode(h), cert, provenance
