"""Independent reference implementations used only by the tests.

Each is a plain, direct computation of something the package computes
faster or more indirectly, kept here so that tests can compare the two.
"""

import itertools

from pairmds.d5 import _block_columns
from pairmds.ecmds import ec_add
from pairmds.errors import ParameterError
from pairmds.linalg import CodeMatrix, rank_of_vectors


def pair_read(u):
    """Cyclic sequence of adjacent coordinate pairs ((u0,u1),...,(u_{n-1},u0))."""
    n = len(u)
    if n < 2:
        raise ValueError("pair read needs length >= 2")
    return tuple((u[i], u[(i + 1) % n]) for i in range(n))


def ec_sum(c, pts):
    """The sum of a list of curve points, one validating ``ec_add`` at a time."""
    acc = None
    for p in pts:
        acc = ec_add(c, acc, p)
    return acc


def transpose(m):
    return CodeMatrix(m.field, tuple(zip(*m.entries))) if m.entries else m


def columns_independent(m, idx):
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


def block_matrix(x, i):
    """The block B_i of the pair-distance-5 construction: columns
    (1, x_{i+j}, x_{i+j}^2 + x_i), j = 0..q-1."""
    f = x.field
    if not 0 <= i < f.q:
        raise ParameterError(f"block index {i} out of range for q={f.q}")
    return CodeMatrix.from_columns(f, _block_columns(x, i))


def gauss_jordan(f, rows):
    """In-place Gauss-Jordan reduction with first-nonzero pivoting; returns
    (rows, pivot column list)."""
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
            rows[r] = f.mul_rows(itertools.repeat(inv), rows[r])
        rr = rows[r]
        for i in range(nrows):
            if i != r and rows[i][c]:
                rows[i] = f.row_sub_mul(rows[i], rows[i][c], rr)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def null_space_by_gauss_jordan(m):
    """Basis of {v : m v^T = 0}: one vector per free column of the reduced
    row echelon form, 1 there and minus that column at the pivots."""
    f = m.field
    n = m.cols
    rows, pivots = gauss_jordan(f, [list(r) for r in m.entries])
    free = [c for c in range(n) if c not in set(pivots)]
    basis = []
    for fc in free:
        v = [0] * n
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = f.neg(rows[i][fc])
        basis.append(tuple(v))
    return CodeMatrix(f, tuple(basis))
