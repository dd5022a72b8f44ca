"""Matrices and linear codes over GF(q).

Row-major matrices of element codes, Gaussian elimination with first-nonzero
pivoting (so reduced forms and null-space bases are deterministic), codeword
enumeration for brute-force oracles, and the Reed-Solomon parity check used
for short lengths.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from typing import Iterator, List, Optional, Sequence, Tuple

from .gf import FieldSpec

DEFAULT_ENUM_CAP = 1 << 22


class EnumerationCapExceeded(RuntimeError):
    """Raised when a brute-force enumeration or subset search would exceed its cap."""


@dataclass(frozen=True)
class CodeMatrix:
    """A rows x cols matrix of field element codes."""

    field: FieldSpec
    entries: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        rows = len(self.entries)
        if rows:
            cols = len(self.entries[0])
            for row in self.entries:
                if len(row) != cols:
                    raise ValueError("ragged matrix")
                for x in row:
                    self.field.check(x)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @staticmethod
    def from_rows(f: FieldSpec, rows: Sequence[Sequence[int]]) -> "CodeMatrix":
        return CodeMatrix(f, tuple(tuple(r) for r in rows))

    @staticmethod
    def from_columns(f: FieldSpec, cols: Sequence[Sequence[int]]) -> "CodeMatrix":
        return CodeMatrix(f, tuple(tuple(c[i] for c in cols) for i in range(len(cols[0]))))

    def column(self, j: int) -> Tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def columns(self) -> List[Tuple[int, ...]]:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "CodeMatrix":
        return CodeMatrix(self.field, tuple(zip(*self.entries))) if self.entries else self


def normalize_point(f: FieldSpec, coords: Sequence[int]) -> Optional[Tuple[int, ...]]:
    """Scale a vector so its first nonzero entry is 1; None for the zero vector.

    Two nonzero vectors span the same line (are the same projective point)
    exactly when their normal forms are equal.
    """
    for x in coords:
        if x:
            if x == 1:
                return tuple(coords)
            inv = f.inv(x)
            return tuple(f.mul(inv, y) for y in coords)
    return None


def dot(f: FieldSpec, u: Sequence[int], v: Sequence[int]) -> int:
    """Sum of u_t * v_t over the field."""
    s = 0
    for x, y in zip(u, v):
        if x and y:
            s = f.add(s, f.mul(x, y))
    return s


def _eliminate(f: FieldSpec, rows: List[List[int]]) -> Tuple[List[List[int]], List[int]]:
    """In-place forward elimination; returns (rows, pivot column list)."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = f.inv(rows[r][c])
        if inv != 1:
            rows[r] = [f.mul(inv, x) for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                coef = rows[i][c]
                ri, rr = rows[i], rows[r]
                rows[i] = [f.sub(ri[j], f.mul(coef, rr[j])) for j in range(ncols)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rank(m: CodeMatrix) -> int:
    """Row rank by elimination over the field."""
    if not m.entries:
        return 0
    rows = [list(r) for r in m.entries]
    _, pivots = _eliminate(m.field, rows)
    return len(pivots)


def rank_of_vectors(f: FieldSpec, vectors: Sequence[Sequence[int]]) -> int:
    """Rank of a list of equal-length vectors, with early exit."""
    vecs = [list(v) for v in vectors]
    if not vecs:
        return 0
    _, pivots = _eliminate(f, vecs)
    return len(pivots)


def columns_independent(m: CodeMatrix, idx: Sequence[int]) -> bool:
    """True iff the selected columns have rank len(idx)."""
    seen = set()
    for j in idx:
        if not 0 <= j < m.cols:
            raise IndexError(f"column index {j} out of range")
        if j in seen:
            raise ValueError(f"duplicate column index {j}")
        seen.add(j)
    cols = [list(m.column(j)) for j in idx]
    return rank_of_vectors(m.field, cols) == len(idx)


def null_space(m: CodeMatrix) -> CodeMatrix:
    """Basis of the right kernel {v : m v^T = 0}, one vector per row."""
    f = m.field
    n = m.cols
    rows = [list(r) for r in m.entries]
    rows, pivots = _eliminate(f, rows)
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [0] * n
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = f.neg(rows[i][fc])
        basis.append(tuple(v))
    return CodeMatrix(f, tuple(basis))


@dataclass(frozen=True)
class LinearCode:
    """A linear code given by a full-row-rank parity-check matrix."""

    parity_check: CodeMatrix
    _basis: CodeMatrix = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        r = rank(self.parity_check)
        if r != self.parity_check.rows:
            raise ValueError(
                f"parity-check matrix has rank {r}, expected full row rank {self.parity_check.rows}"
            )
        if self.k < 1:
            raise ValueError("code dimension must be >= 1")
        object.__setattr__(self, "_basis", null_space(self.parity_check))

    @property
    def field(self) -> FieldSpec:
        return self.parity_check.field

    @property
    def n(self) -> int:
        return self.parity_check.cols

    @property
    def redundancy(self) -> int:
        return self.parity_check.rows

    @property
    def k(self) -> int:
        return self.n - self.parity_check.rows

    def codeword_basis(self) -> CodeMatrix:
        return self._basis


def enumerate_codewords(code: LinearCode, cap: int = DEFAULT_ENUM_CAP) -> Iterator[Tuple[int, ...]]:
    """Yield all q^k codewords exactly once, starting with the zero word.

    Enumeration walks an odometer over the coefficients of the null-space
    basis, so successive codewords differ by a single basis-row addition.
    """
    f = code.field
    q = f.q
    k = code.k
    total = q**k
    if total > cap:
        raise EnumerationCapExceeded(f"q^k = {total} exceeds cap {cap}")
    basis = code.codeword_basis().entries
    n = code.n
    add = f.add
    # deltas[d][v]: row to add when digit d steps from code v to v+1 (mod q);
    # stepping by integer code is not a field increment, so each step carries
    # its own multiple of the basis row
    deltas = [
        [[f.mul(f.sub((v + 1) % q, v), x) for x in row] for v in range(q)]
        for row in basis
    ]
    cw = [0] * n
    digits = [0] * k
    yield tuple(cw)
    for _ in range(total - 1):
        d = 0
        while True:
            v = digits[d]
            row = deltas[d][v]
            for j in range(n):
                cw[j] = add(cw[j], row[j])
            if v == q - 1:
                digits[d] = 0
                d += 1
            else:
                digits[d] = v + 1
                break
        yield tuple(cw)


def rs_parity_check(f: FieldSpec, n: int, r: int) -> CodeMatrix:
    """Vandermonde parity check of an [n, n-r, r+1] MDS (extended) RS code.

    Evaluation points are the field elements in canonical order; when
    n = q+1 the last column is the point at infinity (0,...,0,1).
    """
    if not 1 <= r < n:
        raise ValueError(f"need 1 <= r < n, got r={r}, n={n}")
    if n > f.q + 1:
        raise ValueError(f"length {n} exceeds q+1 = {f.q + 1}")
    npoints = min(n, f.q)
    rows = []
    for t in range(r):
        rows.append([f.pow(x, t) for x in range(npoints)])
    if n == f.q + 1:
        for t in range(r):
            rows[t].append(1 if t == r - 1 else 0)
    return CodeMatrix.from_rows(f, rows)
