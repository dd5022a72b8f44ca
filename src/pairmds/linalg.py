"""Matrices and linear codes over GF(q).

Row-major matrices of element codes.  One elimination kernel, forward
elimination (each pivot clears only the rows below it, on the columns after
it, through the field's row kernel), gives the rank, the pivot columns and,
by back-substitution onto the free columns alone, the reduced row echelon
form on those columns (``reduced_echelon``; the form is unique).  The null
space reads its deterministic basis from that form, and so does the
elliptic route's residue parity check (``ecmds.residue_parity_check``).  A
``CodeMatrix`` keeps the column basis its first elimination found
(``CodeMatrix.column_basis``, cached; ``null_space`` fills it in), and a
certificate that has proven some columns a basis records them there, so no
matrix is eliminated twice.  Also: small determinants (a 4x4 determinant by
2x2 minors for coplanarity, and the determinants of every cyclic d-column
window of a d-row matrix at once, for the 3 and 4 rows of the pair-distance
5 and 6 parity checks, by cofactor expansion on the field's row kernels,
each a*b - c*d one ``minor_rows`` pass, for the checker's condition 3);
codeword enumeration for brute-force oracles (one generator lists the sums
of basis-row multiples in word order, both a block of low-digit words,
built once, and the coset bases; each coset of the block is read from the
field's addition table in C); and the Reed-Solomon parity check used for
short lengths.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field as dc_field
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from .gf import ADD_TABLE_MAX_ORDER, FieldSpec

DEFAULT_ENUM_CAP = 1 << 22

# codeword enumeration: the fewest low digits whose words number at least
# this form its block
_BLOCK_WORDS = 64


class EnumerationCapExceeded(RuntimeError):
    """Raised when a brute-force enumeration or subset search would exceed its cap."""


@dataclass(frozen=True)
class CodeMatrix:
    """A rows x cols matrix of field element codes.

    Construction checks only the shape.  ``from_rows`` is the constructor
    for data from outside the package, and checks every entry too; the
    package's own matrices (products and sums of field elements, and points
    it listed) are built directly or by ``from_columns``.
    """

    field: FieldSpec
    entries: Tuple[Tuple[int, ...], ...]
    _column_basis: Optional[Tuple[int, ...]] = dc_field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        # set on the instance now, so that filling it in later adds no
        # attribute: CPython then keeps the attributes out of a dict
        object.__setattr__(self, "_column_basis", None)
        _check_rows(self.entries)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @staticmethod
    def from_rows(f: FieldSpec, rows: Sequence[Sequence[int]]) -> "CodeMatrix":
        """The matrix of `rows`, each entry checked to be an element code of
        f, in turn, row by row, so an error names the first bad entry."""
        entries = tuple(tuple(r) for r in rows)
        _check_rows(entries, f.check)
        return CodeMatrix(f, entries)

    @staticmethod
    def from_columns(f: FieldSpec, cols: Sequence[Sequence[int]]) -> "CodeMatrix":
        return CodeMatrix(f, tuple(zip(*cols, strict=True)))

    def column(self, j: int) -> Tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def columns(self) -> List[Tuple[int, ...]]:
        return list(zip(*self.entries))

    @property
    def column_basis(self) -> Tuple[int, ...]:
        """Ascending indices of columns that form a basis of the column space,
        so the rank is its length.

        Computed on first use as the pivot columns of a forward elimination,
        unless ``null_space`` or ``record_column_basis`` has already set it.
        """
        if self._column_basis is None:
            self.record_column_basis(_forward(self.field, self.entries)[0])
        return self._column_basis

    def record_column_basis(self, cols: Sequence[int]) -> None:
        """Keep `cols`, columns a caller has proven to be a basis of the
        column space, as ``column_basis``."""
        object.__setattr__(self, "_column_basis", tuple(cols))


def _check_rows(
    entries: Sequence[Sequence[int]], check: Optional[Callable[[int], int]] = None
) -> None:
    """Raise ValueError if the rows differ in length and, with `check`,
    call it on every entry of each row in turn before the next row's length
    is compared."""
    if entries:
        cols = len(entries[0])
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged matrix")
            if check is not None:
                for x in row:
                    check(x)


def det4(f: FieldSpec, m: Sequence[Sequence[int]]) -> int:
    """Determinant of a 4x4 matrix, by Laplace expansion along rows 0 and 1.

    The signed sum, over the six column pairs, of the 2x2 minor of rows 0
    and 1 on that pair times the minor of rows 2 and 3 on the other two
    columns.  Prime fields expand on plain ints and reduce once mod p;
    binary fields multiply through the exp/log tables and add by XOR, where
    every sign is +; odd-extension fields use the scalar field methods.
    """
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = m
    if f.a == 1:
        return (
            (a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2) - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
            + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1) + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
            - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0) + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0)
        ) % f.p
    if f.p == 2:
        exp, log = f._exp, f._log
        # from here on the names hold the entries' logs
        a0, a1, a2, a3, b0, b1, b2, b3 = map(log.__getitem__, (a0, a1, a2, a3, b0, b1, b2, b3))
        c0, c1, c2, c3, d0, d1, d2, d3 = map(log.__getitem__, (c0, c1, c2, c3, d0, d1, d2, d3))
        return (
            exp[log[exp[a0 + b1] ^ exp[a1 + b0]] + log[exp[c2 + d3] ^ exp[c3 + d2]]]
            ^ exp[log[exp[a0 + b2] ^ exp[a2 + b0]] + log[exp[c1 + d3] ^ exp[c3 + d1]]]
            ^ exp[log[exp[a0 + b3] ^ exp[a3 + b0]] + log[exp[c1 + d2] ^ exp[c2 + d1]]]
            ^ exp[log[exp[a1 + b2] ^ exp[a2 + b1]] + log[exp[c0 + d3] ^ exp[c3 + d0]]]
            ^ exp[log[exp[a1 + b3] ^ exp[a3 + b1]] + log[exp[c0 + d2] ^ exp[c2 + d0]]]
            ^ exp[log[exp[a2 + b3] ^ exp[a3 + b2]] + log[exp[c0 + d1] ^ exp[c1 + d0]]]
        )
    mul, sub, add = f.mul, f.sub, f.add
    top01 = sub(mul(a0, b1), mul(a1, b0))
    top02 = sub(mul(a0, b2), mul(a2, b0))
    top03 = sub(mul(a0, b3), mul(a3, b0))
    top12 = sub(mul(a1, b2), mul(a2, b1))
    top13 = sub(mul(a1, b3), mul(a3, b1))
    top23 = sub(mul(a2, b3), mul(a3, b2))
    bot01 = sub(mul(c0, d1), mul(c1, d0))
    bot02 = sub(mul(c0, d2), mul(c2, d0))
    bot03 = sub(mul(c0, d3), mul(c3, d0))
    bot12 = sub(mul(c1, d2), mul(c2, d1))
    bot13 = sub(mul(c1, d3), mul(c3, d1))
    bot23 = sub(mul(c2, d3), mul(c3, d2))
    plus = add(add(mul(top01, bot23), mul(top03, bot12)), add(mul(top12, bot03), mul(top23, bot01)))
    return sub(plus, add(mul(top02, bot13), mul(top13, bot02)))


def window_dets(f: FieldSpec, rows: Sequence[Sequence[int]]) -> List[int]:
    """Determinants of the cyclic windows of d consecutive columns of a
    d-row matrix, d = 3 or 4: the parity checks of pair distance 5 and 6.

    Entry i is the determinant of columns i, ..., i + d - 1 (mod n).  Each
    minor on a set of column offsets is one list over all windows, built by
    cofactor expansion along its top row from the minors of the rows below:
    the 2x2 minors of the bottom two rows on offsets (0, k), then the 3x3
    minors of the bottom three, then, for d = 4, the 4x4 determinants.  A
    minor on offsets moved by t is the same list read from t on.  Each
    difference of two products, a 2x2 minor or two terms of a cofactor
    expansion, is one ``minor_rows`` pass, each lone product one
    ``mul_rows`` pass and each sum one ``add_rows`` pass: 5 passes at
    d = 3, 15 at d = 4.  The row kernels stop at the shortest row, which
    sets each list's length: the rows are extended cyclically by d - 1
    entries.
    """
    d = len(rows)
    if d not in (3, 4):
        raise ValueError(f"window determinants take 3 or 4 rows, got {d}")
    n = len(rows[0])
    if n < d - 1:
        raise ValueError(f"{n} columns are too few for windows of {d}")
    mul, add, minor = f.mul_rows, f.add_rows, f.minor_rows
    ext = [list(r) + list(r[:d - 1]) for r in rows]
    r0, r1, r2 = ext[-3:]
    # mS (pS): the minors of the bottom two (three) rows on offsets S
    m01 = minor(r1, r2[1:], r1[1:], r2)
    m02 = minor(r1, r2[2:], r1[2:], r2)
    p012 = add(minor(r0, m01[1:], r0[1:], m02), mul(r0[2:], m01))
    if d == 3:
        return p012
    m03 = minor(r1, r2[3:], r1[3:], r2)
    p013 = add(minor(r0, m02[1:], r0[1:], m03), mul(r0[3:], m01))
    p023 = add(minor(r0, m01[2:], r0[2:], m03), mul(r0[3:], m02))
    top = ext[0]
    return add(minor(top, p012[1:], top[1:], p023), minor(top[2:], p013, top[3:], p012))


def _forward(
    f: FieldSpec, rows: Sequence[Sequence[int]]
) -> Tuple[List[int], List[Tuple[int, Sequence[int]]]]:
    """Forward elimination: (pivot columns, pivot rows).

    The rows left below the pivots are kept as their suffixes after the last
    pivot column.  Each pivot costs one inverse; each row it clears costs
    one product for the multiplier and one row_sub_mul over the columns
    after the pivot, and the rows it does not touch are only sliced.  Pivot
    row i is returned as (s, tail): the inverse of its pivot entry and its
    entries after the pivot column, as they stood when it became a pivot.
    """
    inv, mul, sub_mul = f.inv, f.mul, f.row_sub_mul
    rows = list(rows)
    width = len(rows[0]) if rows else 0
    pivots: List[int] = []
    reduced: List[Tuple[int, Sequence[int]]] = []
    base = 0  # the column that column 0 of the rows left stands for
    c = 0
    while rows and c < width:
        for i, row in enumerate(rows):
            if row[c]:
                break
        else:
            c += 1
            continue
        pivot = rows.pop(i)
        s = inv(pivot[c])
        tail = pivot[c + 1:]
        rows = [
            sub_mul(row[c + 1:], mul(row[c], s), tail) if row[c] else row[c + 1:]
            for row in rows
        ]
        pivots.append(base + c)
        reduced.append((s, tail))
        base += c + 1
        width -= c + 1
        c = 0
    return pivots, reduced


def rank(m: CodeMatrix) -> int:
    """Row rank: the size of the matrix's column basis."""
    return len(m.column_basis)


def rank_of_vectors(f: FieldSpec, vectors: Sequence[Sequence[int]]) -> int:
    """Rank of a list of equal-length vectors, by forward elimination."""
    return len(_forward(f, vectors)[0])


def reduced_echelon(
    f: FieldSpec, rows: Sequence[Sequence[int]]
) -> Tuple[List[int], List[int], List[List[int]]]:
    """(pivots, free, reduced): the pivot columns of the rows, the other
    columns in ascending order, and pivot row i of the reduced row echelon
    form on the free columns alone (on the pivot columns it is 1 at pivot i
    and 0 elsewhere).

    After forward elimination, back-substitution runs from the last pivot
    row up, and the multiplier of a later pivot row j in row i is row i's
    own normalised entry at pivot column j, which no earlier step changes.
    """
    width = len(rows[0]) if rows else 0
    pivots, forward = _forward(f, rows)
    pivot_set = set(pivots)
    free = [c for c in range(width) if c not in pivot_set]
    reduced: List[List[int]] = [[]] * len(pivots)
    for i in range(len(pivots) - 1, -1, -1):
        p = pivots[i]
        s, tail = forward[i]
        if s != 1:
            tail = f.mul_rows(itertools.repeat(s), tail)
        # tail[c - p - 1] is the entry at column c > p
        row = [tail[c - p - 1] if c > p else 0 for c in free]
        for j in range(i + 1, len(pivots)):
            x = tail[pivots[j] - p - 1]
            if x:
                row = f.row_sub_mul(row, x, reduced[j])
        reduced[i] = row
    return pivots, free, reduced


def null_space(m: CodeMatrix) -> CodeMatrix:
    """Basis of the right kernel {v : m v^T = 0}, one vector per row.

    The basis vector of free column c has 1 at c, 0 at the other free
    columns, and minus column c of the reduced row echelon form at the pivot
    columns, which ``reduced_echelon`` gives on the free columns alone.  The
    pivot columns are kept on m as its column basis.
    """
    f = m.field
    n = m.cols
    pivots, free, rref = reduced_echelon(f, m.entries)
    m.record_column_basis(pivots)
    zero = [0] * len(free)
    minus = [f.row_sub_mul(zero, 1, row) for row in rref]
    basis = []
    for c, column in zip(free, zip(*minus) if minus else itertools.repeat(())):
        v = [0] * n
        v[c] = 1
        for p, x in zip(pivots, column):
            v[p] = x
        basis.append(tuple(v))
    return CodeMatrix(f, tuple(basis))


@dataclass(frozen=True)
class LinearCode:
    """A linear code given by a full-row-rank parity-check matrix."""

    parity_check: CodeMatrix

    def __post_init__(self):
        r = rank(self.parity_check)
        if r != self.parity_check.rows:
            raise ValueError(
                f"parity-check matrix has rank {r}, expected full row rank {self.parity_check.rows}"
            )
        if self.k < 1:
            raise ValueError("code dimension must be >= 1")

    @property
    def field(self) -> FieldSpec:
        return self.parity_check.field

    @property
    def n(self) -> int:
        return self.parity_check.cols

    @property
    def k(self) -> int:
        return self.n - self.parity_check.rows

    def codeword_basis(self) -> CodeMatrix:
        return null_space(self.parity_check)


def _sums(f: FieldSpec, multiples: Sequence[Sequence[List[int]]], n: int) -> Iterator[List[int]]:
    """Every sum of one row from each list of `multiples`, the first list's
    row varying fastest: sum i takes row c_d of list d, c_d base-q digit d
    of i.  Each sum is one ``FieldSpec.add_rows`` pass onto a sum of the
    later lists; with no lists, the one sum is the zero row of length n."""
    if not multiples:
        yield [0] * n
        return
    for rest in _sums(f, multiples[1:], n):
        for row in multiples[0]:
            yield f.add_rows(row, rest)


def enumerate_codewords(code: LinearCode, cap: int = DEFAULT_ENUM_CAP) -> Iterator[Tuple[int, ...]]:
    """Yield all q^k codewords exactly once, as tuples, starting with the zero word.

    Word number i is the sum of c_d * b_d over the null-space basis rows
    b_d, where c_d is base-q digit d of i (digit 0 the least significant)
    read as an element code.

    One generator, ``_sums``, lists the sums of basis-row multiples in word
    order.  The words of the low m digits (the fewest with q^m >=
    _BLOCK_WORDS) form a block: word w is kept only as the itemgetter of
    positions j * q + w_j, so applied to the addition-table rows of a base,
    concatenated (``FieldSpec.addition_rows``), it returns the tuple
    base + w in C, with no field call per element.  The bases are the sums
    over the other digits, and every word is a base plus a block word.
    Fields without an addition table take m = 0: every word is a base.
    """
    f = code.field
    q = f.q
    k = code.k
    total = q**k
    if total > cap:
        raise EnumerationCapExceeded(f"q^k = {total} exceeds cap {cap}")
    basis = code.codeword_basis().entries
    n = code.n
    # multiples[d][v]: basis row d times the element with code v
    multiples = [[f.mul_rows(itertools.repeat(v), row) for v in range(q)] for row in basis]
    m = 0
    if q <= ADD_TABLE_MAX_ORDER:
        while m < k and q**m < _BLOCK_WORDS:
            m += 1
    bases = _sums(f, multiples[m:], n)
    if not m:
        yield from map(tuple, bases)
        return
    # n >= 2 (k >= 1 and H has a row), so every getter returns a tuple
    offsets = range(0, n * q, q)
    block = _sums(f, multiples[:m], n)
    getters = [operator.itemgetter(*map(operator.add, offsets, w)) for w in block]
    call = operator.itemgetter.__call__
    for base in bases:
        yield from map(call, getters, itertools.repeat(f.addition_rows(base)))


def rs_parity_check(f: FieldSpec, n: int, r: int) -> CodeMatrix:
    """Vandermonde parity check of an [n, n-r, r+1] MDS (extended) RS code.

    Evaluation points are the field elements in canonical order, row t
    being row t-1 times the row of points; when n = q+1 the last column is
    the point at infinity (0,...,0,1).
    """
    if not 1 <= r < n:
        raise ValueError(f"need 1 <= r < n, got r={r}, n={n}")
    if n > f.q + 1:
        raise ValueError(f"length {n} exceeds q+1 = {f.q + 1}")
    npoints = min(n, f.q)
    rows = [[1] * npoints]
    for _ in range(1, r):
        rows.append(f.mul_rows(rows[-1], range(npoints)))
    if n == f.q + 1:
        for t in range(r):
            rows[t].append(1 if t == r - 1 else 0)
    return CodeMatrix(f, tuple(map(tuple, rows)))
