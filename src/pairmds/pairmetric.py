"""The symbol-pair metric and the certificate checker for parity-check matrices.

The checker re-derives everything from the matrix alone: the construction
modules call it on their own output instead of asserting correctness of their
case analyses.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, Optional, Sequence, Tuple

from .gf import FieldSpec
from .linalg import (
    CodeMatrix,
    DEFAULT_ENUM_CAP,
    EnumerationCapExceeded,
    LinearCode,
    enumerate_codewords,
    normalize_point,
    rank_of_vectors,
)

ROUTE_THEOREM = "column-conditions"
ROUTE_EC = "ec-algebraic"
ROUTE_MDS = "mds-hamming"
ROUTE_BRUTE = "brute-force"

COND_ANY_SMALL_INDEPENDENT = "condition-1"
COND_DEPENDENT_SET_EXISTS = "condition-2"
COND_CONSECUTIVE_INDEPENDENT = "condition-3"

_SUBSET_SCAN_CAP = 2_000_000


def pair_read(u: Sequence[int]) -> Tuple[Tuple[int, int], ...]:
    """Cyclic sequence of adjacent coordinate pairs ((u0,u1),...,(u_{n-1},u0))."""
    n = len(u)
    if n < 2:
        raise ValueError("pair read needs length >= 2")
    return tuple((u[i], u[(i + 1) % n]) for i in range(n))


def pair_weight(u: Sequence[int]) -> int:
    """Number of cyclic positions i with (u_i, u_{i+1}) != (0, 0)."""
    n = len(u)
    if n < 2:
        raise ValueError("pair weight needs length >= 2")
    w = 0
    prev = u[n - 1]
    for x in u:
        # counts position i via the pair (u_{i-1}, u_i) shifted by one; the
        # cyclic count is the same either way
        if x or prev:
            w += 1
        prev = x
    return w


def pair_distance(f: FieldSpec, u: Sequence[int], v: Sequence[int]) -> int:
    """d_p(u, v) = pair weight of u - v."""
    if len(u) != len(v):
        raise ValueError("length mismatch")
    return pair_weight([f.sub(x, y) for x, y in zip(u, v)])


def hamming_weight(u: Sequence[int]) -> int:
    return sum(1 for x in u if x)


def min_pair_distance_bruteforce(code: LinearCode, cap: int = DEFAULT_ENUM_CAP) -> int:
    """Smallest pair weight over all nonzero codewords, by full enumeration."""
    best = None
    for cw in enumerate_codewords(code, cap=cap):
        if not any(cw):
            continue
        w = pair_weight(cw)
        if best is None or w < best:
            best = w
    if best is None:  # pragma: no cover - k >= 1 guarantees nonzero words
        raise ValueError("code has no nonzero codeword")
    return best


def min_hamming_distance_bruteforce(code: LinearCode, cap: int = DEFAULT_ENUM_CAP) -> int:
    best = None
    for cw in enumerate_codewords(code, cap=cap):
        w = hamming_weight(cw)
        if w and (best is None or w < best):
            best = w
    if best is None:  # pragma: no cover
        raise ValueError("code has no nonzero codeword")
    return best


@dataclass(frozen=True)
class PairCertificate:
    """Machine-checkable evidence about the pair distance of a matrix's code.

    On success for the constructive routes, ``d_pair`` equals
    ``n - dim_exponent + 2`` (the Singleton equality M = q^{n-d+2}).
    ``dependent_set`` is the condition-2 witness where applicable;
    ``failing_set`` names offending columns when verification fails.
    """

    q: int
    n: int
    d_pair: int
    dim_exponent: int
    route: str
    ok: bool
    dependent_set: Optional[Tuple[int, ...]] = None
    failed_condition: Optional[str] = None
    failing_set: Optional[Tuple[int, ...]] = None
    checks: Dict[str, object] = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.ok and self.route in (ROUTE_THEOREM, ROUTE_EC, ROUTE_MDS):
            if self.d_pair != self.n - self.dim_exponent + 2:
                raise ValueError("certificate violates the Singleton equality")

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "q": self.q,
            "n": self.n,
            "d_pair": self.d_pair,
            "dim_exponent": self.dim_exponent,
            "route": self.route,
            "ok": self.ok,
            "dependent_set": list(self.dependent_set) if self.dependent_set else None,
            "failed_condition": self.failed_condition,
            "failing_set": list(self.failing_set) if self.failing_set else None,
            "checks": self.checks,
        }


def singleton_verdict(q: int, n: int, size_exponent: int, d_pair: int) -> bool:
    """True iff q^k meets the Singleton ceiling q^{n-d+2} with equality."""
    if not 2 <= d_pair <= n:
        raise ValueError(f"need 2 <= d_pair <= n, got d_pair={d_pair}, n={n}")
    return size_exponent == n - d_pair + 2


def _first_dependent_subset(f, cols, size):
    """Lexicographically first set of `size` linearly dependent columns, or None.

    Projection from a point: a column c_i together with a set T of later
    columns is dependent exactly when c_i is zero or the images of T in the
    quotient by <c_i> are dependent (a relation among those images lifts to
    one among T and c_i, and a relation that uses c_i must also use T).  So
    the search fixes the smallest index i in ascending order, projects the
    later columns from c_i (one coordinate fewer), and recurses for the first
    dependent (size - 1)-set among the images; the first i that yields one
    gives the answer.  At size 2, two columns are dependent exactly when one
    is zero or both have the same normalised form, so pairs are matched by
    hashing; that level reads the projections lazily and stops as soon as the
    first column has a partner.

    A full scan projects about C(n, size - 1) columns.  At most
    _SUBSET_SCAN_CAP are projected; past that EnumerationCapExceeded is raised.
    """
    left = _SUBSET_SCAN_CAP

    def project(pivot, later):
        nonlocal left
        p = next(t for t, x in enumerate(pivot) if x)
        keep = [t for t in range(len(pivot)) if t != p]
        inv = f.inv(pivot[p])
        # v - v[p] * pivot / pivot[p], with coordinate p (now 0) dropped
        neg = [f.neg(f.mul(inv, pivot[t])) for t in keep]
        for v in later:
            left -= 1
            if left < 0:
                raise EnumerationCapExceeded(
                    f"dependent-set search over C({len(cols)},{size}) exceeds "
                    f"{_SUBSET_SCAN_CAP} projected columns"
                )
            a = v[p]
            if a:
                yield tuple([f.add(v[t], f.mul(a, c)) for t, c in zip(keep, neg)])
            else:
                yield tuple([v[t] for t in keep])

    def first_pair(vectors):
        it = iter(vectors)
        head = next(it, None)
        if head is None:
            return None
        key0 = normalize_point(f, head)
        first: Dict[Tuple[int, ...], int] = {}  # normal form -> first index
        partner: Dict[int, int] = {}  # first index -> next index of its form
        for k, v in enumerate(it, 1):
            key = normalize_point(f, v)
            if key0 is None or key is None or key == key0:
                return 0, k
            j = first.setdefault(key, k)
            if j < k and j not in partner:
                partner[j] = k
        if partner:
            j = min(partner)
            return j, partner[j]
        return None

    def search(vectors, size):
        if size == 2:
            return first_pair(vectors)
        vectors = list(vectors)
        for i in range(len(vectors) - size + 1):
            pivot = vectors[i]
            if not any(pivot):
                return tuple(range(i, i + size))
            if size == 1:
                continue
            found = search(project(pivot, vectors[i + 1:]), size - 1)
            if found is not None:
                return (i,) + tuple(i + 1 + t for t in found)
        return None

    if size < 1:  # the empty set is independent
        return None
    return search(cols, size)


def _first_dependent_small_subset(f, cols, size):
    # condition 1 only; kept because perfbench/tracer.py wraps both names and
    # perfbench/tests asserts that no wrap target is missing
    return _first_dependent_subset(f, cols, size)


def check_theorem_conditions(h: CodeMatrix, d_h: int) -> PairCertificate:
    """Verify the three sufficient conditions for an MDS pair code.

    1. any d_h - 1 columns are linearly independent;
    2. some d_h columns are linearly dependent;
    3. every d_h cyclically consecutive columns are independent.

    Returns a success certificate claiming pair distance d_h + 2, or a
    failure certificate naming the violated condition and a witness.
    """
    f = h.field
    n = h.cols
    if h.rows != d_h:
        raise ValueError(f"matrix has {h.rows} rows, expected d_H = {d_h}")
    if not n >= d_h + 2 >= 4:
        raise ValueError(f"need n >= d_H + 2 >= 4, got n={n}, d_H={d_h}")
    cols = h.columns()

    def failure(cond, witness):
        return PairCertificate(
            q=f.q,
            n=n,
            d_pair=d_h + 2,
            dim_exponent=n - d_h,
            route=ROUTE_THEOREM,
            ok=False,
            failed_condition=cond,
            failing_set=tuple(witness) if witness is not None else None,
        )

    bad = _first_dependent_small_subset(f, cols, d_h - 1)
    if bad is not None:
        return failure(COND_ANY_SMALL_INDEPENDENT, bad)

    witness = _first_dependent_subset(f, cols, d_h)
    if witness is None:
        return failure(COND_DEPENDENT_SET_EXISTS, None)

    for i in range(n):
        window = [(i + t) % n for t in range(d_h)]
        if rank_of_vectors(f, [cols[j] for j in window]) < d_h:
            return failure(COND_CONSECUTIVE_INDEPENDENT, window)

    return PairCertificate(
        q=f.q,
        n=n,
        d_pair=d_h + 2,
        dim_exponent=n - d_h,
        route=ROUTE_THEOREM,
        ok=True,
        dependent_set=witness,
        checks={"d_H": d_h},
    )


def check_mds_conditions(h: CodeMatrix) -> PairCertificate:
    """Certify a classical MDS parity check (every r columns independent).

    An [n, n-r, r+1] MDS code is an MDS symbol-pair code of pair distance
    r + 2: weight-w codewords have pair weight >= w + 1 >= r + 2, and the
    Singleton ceiling forbids anything larger.
    """
    f = h.field
    r = h.rows
    n = h.cols
    witness = _first_dependent_subset(f, h.columns(), r)
    if witness is not None:
        return PairCertificate(
            q=f.q,
            n=n,
            d_pair=r + 2,
            dim_exponent=n - r,
            route=ROUTE_MDS,
            ok=False,
            failed_condition="mds-minors",
            failing_set=witness,
        )
    return PairCertificate(
        q=f.q,
        n=n,
        d_pair=r + 2,
        dim_exponent=n - r,
        route=ROUTE_MDS,
        ok=True,
        checks={"d_H": r + 1},
    )
