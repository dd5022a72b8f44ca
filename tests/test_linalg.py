import enum
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from pairmds import linalg
from pairmds.gf import FieldError, field, field_of_order
from pairmds.linalg import (
    CodeMatrix,
    EnumerationCapExceeded,
    LinearCode,
    det4,
    enumerate_codewords,
    null_space,
    rank,
    rank_of_vectors,
    reduced_echelon,
    rs_parity_check,
    window_dets,
)

from goldens import H2_FULL, H2_N5
from reference import (
    columns_independent,
    gauss_jordan,
    min_hamming_distance_bruteforce,
    null_space_by_gauss_jordan,
    transpose,
    window_dets3,
)


def mat(q, rows):
    return CodeMatrix.from_rows(field_of_order(q), rows)


class _Code(enum.IntEnum):
    ONE = 1


# each value, and the message that names it over GF(5)
BAD_ENTRIES = [
    (True, "of type bool"),
    (1.0, "of type float"),
    (-1, "-1"),
    (5, "5"),
    (2**70, str(2**70)),
    ("3", "of type str"),
    (None, "of type NoneType"),
    (_Code.ONE, "of type _Code"),
]


@pytest.mark.parametrize("bad, shown", BAD_ENTRIES, ids=[repr(b) for b, _ in BAD_ENTRIES])
@pytest.mark.parametrize("slot", [0, 3, 6])
def test_matrix_names_the_first_bad_entry(bad, shown, slot):
    # every entry is checked in turn, row by row, so the message names the
    # first bad entry, wherever it sits in the row
    f = field_of_order(5)
    row = [1, 2, 3, 4, 0, 1, 2]
    row[slot] = bad
    for rows in ([row], [[0] * 7, row], [row, [9] * 7]):
        with pytest.raises(FieldError) as exc:
            CodeMatrix.from_rows(f, rows)
        assert str(exc.value) == f"element code {shown} is not an integer in 0..4"
    if slot < 6:
        row[slot + 1] = 7  # a later bad entry goes unnamed
        with pytest.raises(FieldError, match=f"^element code {shown} is not"):
            CodeMatrix.from_rows(f, [row])


def test_matrix_accepts_every_code_and_only_those():
    f = field_of_order(9)
    m = CodeMatrix.from_rows(f, [list(range(9)), [8] * 9, [0] * 9])
    assert m.rows == 3 and m.cols == 9
    assert CodeMatrix.from_rows(f, [[], []]).cols == 0
    with pytest.raises(ValueError, match="ragged"):
        CodeMatrix.from_rows(f, [[1, 2], [1]])


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(1, 5), cols=st.integers(1, 40), data=st.data())
def test_from_columns_is_the_transpose(rows, cols, data):
    f = field_of_order(7)
    columns = data.draw(
        st.lists(st.lists(st.integers(0, 6), min_size=rows, max_size=rows), min_size=cols, max_size=cols)
    )
    m = CodeMatrix.from_columns(f, columns)
    assert m.entries == tuple(tuple(c[i] for c in columns) for i in range(rows))


def test_from_columns_rejects_ragged_columns():
    f = field_of_order(7)
    for columns in ([(1, 2), (3,)], [(1,), (2, 3)]):
        with pytest.raises(ValueError):
            CodeMatrix.from_columns(f, columns)


def test_rank_examples():
    assert rank(mat(5, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3
    assert rank(mat(5, [[0, 0], [0, 0]])) == 0
    assert rank(mat(2, H2_FULL)) == 3


def test_rank_transpose_sampled():
    rng = random.Random(7)
    for q in (2, 3, 4, 5, 9):
        f = field_of_order(q)
        for _ in range(25):
            r, c = rng.randint(1, 5), rng.randint(1, 6)
            m = CodeMatrix.from_rows(
                f, [[rng.randrange(q) for _ in range(c)] for _ in range(r)]
            )
            assert rank(m) == rank(transpose(m))


def test_columns_independent_examples():
    ident = mat(5, [[1, 0], [0, 1]])
    assert columns_independent(ident, [0, 1])
    scaled = mat(5, [[1, 2], [2, 4]])
    assert not columns_independent(scaled, [0, 1])
    h2 = mat(2, H2_FULL)
    # columns 0, 1, 3 have third coordinate zero
    assert not columns_independent(h2, [0, 1, 3])
    assert columns_independent(h2, [0, 1, 2])
    with pytest.raises(ValueError):
        columns_independent(h2, [0, 0])
    with pytest.raises(IndexError):
        columns_independent(h2, [0, 99])


def test_null_space_examples():
    f2 = field(2, 1)
    ident = mat(5, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert null_space(ident).rows == 0
    ns = null_space(CodeMatrix.from_rows(f2, [[1, 1]]))
    assert ns.entries == ((1, 1),)


def test_null_space_duality_and_orthogonality():
    rng = random.Random(3)
    for q in (2, 3, 4, 5):
        f = field_of_order(q)
        for _ in range(20):
            r, c = rng.randint(1, 4), rng.randint(2, 7)
            g = CodeMatrix.from_rows(
                f, [[rng.randrange(q) for _ in range(c)] for _ in range(r)]
            )
            ns = null_space(g)
            assert ns.rows == c - rank(g)
            if ns.rows:
                assert rank(ns) == ns.rows
            for grow in g.entries:
                for nrow in ns.entries:
                    s = 0
                    for a, b in zip(grow, nrow):
                        s = f.add(s, f.mul(a, b))
                    assert s == 0
            if rank(g) == r:
                back = null_space(ns) if ns.rows else None
                if back is not None:
                    stacked = CodeMatrix.from_rows(f, list(g.entries) + list(back.entries))
                    assert rank(stacked) == r


def test_enumerate_codewords_h2n5():
    code = LinearCode(mat(2, H2_N5))
    words = list(enumerate_codewords(code))
    assert len(words) == 4  # n=5, r=3, k=2
    assert len(set(words)) == 4
    assert (0, 0, 0, 0, 0) in words
    f = code.field
    for u, v in itertools.product(words, repeat=2):
        s = tuple(f.add(a, b) for a, b in zip(u, v))
        assert s in set(words)


def test_enumerate_count_and_closure_sampled():
    rng = random.Random(11)
    for q in (2, 3, 4):
        f = field_of_order(q)
        h = rs_parity_check(f, q + 1, q - 1)
        code = LinearCode(h)
        words = list(enumerate_codewords(code))
        assert len(words) == q**code.k
        assert len(set(words)) == len(words)
        for _ in range(50):
            u, v = rng.choice(words), rng.choice(words)
            assert tuple(f.add(a, b) for a, b in zip(u, v)) in set(words)


def test_enumerate_cap():
    f = field(2, 1)
    h = CodeMatrix.from_rows(f, [[1] * 30])
    code = LinearCode(h)
    with pytest.raises(EnumerationCapExceeded):
        list(enumerate_codewords(code, cap=2**10))


def reference_codewords(code):
    """The plain odometer: one basis-row step per word, one field call per
    coordinate, digit 0 stepping fastest."""
    f = code.field
    q = f.q
    basis = code.codeword_basis().entries
    deltas = [
        [[f.mul(f.sub((v + 1) % q, v), x) for x in row] for v in range(q)] for row in basis
    ]
    cw = [0] * code.n
    digits = [0] * code.k
    yield tuple(cw)
    for _ in range(q**code.k - 1):
        d = 0
        while True:
            v = digits[d]
            cw = [f.add(x, y) for x, y in zip(cw, deltas[d][v])]
            if v == q - 1:
                digits[d] = 0
                d += 1
            else:
                digits[d] = v + 1
                break
        yield tuple(cw)


def random_code(q, n, k, seed):
    f = field_of_order(q)
    rng = random.Random(seed)
    while True:
        h = CodeMatrix.from_rows(f, [[rng.randrange(q) for _ in range(n)] for _ in range(n - k)])
        if rank(h) == n - k:
            return LinearCode(h)


# (q, n, k): prime, binary, odd extensions with an addition table and (729)
# without one; the block is the whole code (m = k) or leaves cosets, whose
# bases run over one, two or (at q = 3, k = 7: m = 4) three digits
ENUM_CASES = [
    (5, 6, 2), (5, 7, 4), (13, 5, 3), (2, 12, 8), (4, 5, 2), (8, 6, 3),
    (9, 5, 3), (27, 4, 2), (25, 5, 3), (729, 3, 1), (729, 2, 1), (3, 10, 7),
]


@pytest.mark.parametrize("q,n,k", ENUM_CASES)
@pytest.mark.parametrize("blocks", [True, False])
def test_enumerate_codewords_follows_the_reference_odometer(q, n, k, blocks, monkeypatch):
    if not blocks:
        # m = 0, as in fields without an addition table: one odometer step
        # per word
        monkeypatch.setattr(linalg, "_BLOCK_WORDS", 1)
    code = random_code(q, n, k, seed=q * 100 + n)
    words = list(enumerate_codewords(code))
    assert words == list(reference_codewords(code))
    assert all(type(w) is tuple for w in words)


def test_enumeration_makes_no_per_element_field_calls(monkeypatch):
    from pairmds.gf import FieldSpec

    calls = {"add": 0, "mul": 0, "sub": 0}
    for name in calls:
        method = getattr(FieldSpec, name)

        def counted(self, *args, _name=name, _method=method):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(FieldSpec, name, counted)
    for q, n, k in [(7, 8, 5), (8, 7, 4), (27, 5, 3), (729, 3, 1)]:
        code = random_code(q, n, k, seed=q)
        calls.update(add=0, mul=0, sub=0)
        assert sum(1 for _ in enumerate_codewords(code)) == q**k
        # the null-space basis may make a few; the words make none
        assert sum(calls.values()) <= n * k, (q, calls)


def test_linear_code_invariants():
    f = field(2, 1)
    with pytest.raises(ValueError):
        LinearCode(CodeMatrix.from_rows(f, [[1, 1], [1, 1]]))  # rank deficient
    with pytest.raises(ValueError):
        LinearCode(CodeMatrix.from_rows(f, [[1, 0], [0, 1]]))  # k = 0


def test_rs_parity_check_examples():
    f4 = field(2, 2)
    h = rs_parity_check(f4, 5, 2)
    for pair in itertools.combinations(range(5), 2):
        assert columns_independent(h, pair)
    with pytest.raises(ValueError):
        rs_parity_check(f4, 6, 2)  # n = q + 2
    ones = rs_parity_check(f4, 5, 1)
    assert ones.entries == ((1, 1, 1, 1, 1),)


@pytest.mark.parametrize("q,n,r", [(5, 6, 3), (7, 8, 4), (4, 5, 3), (8, 9, 5), (9, 10, 4)])
def test_rs_every_r_columns_independent(q, n, r):
    f = field_of_order(q)
    h = rs_parity_check(f, n, r)
    assert h.rows == r and h.cols == n
    for subset in itertools.combinations(range(n), r):
        assert columns_independent(h, subset)


def test_rs_minimum_distance_bruteforce_oracle():
    # [n, n-r, r+1] by direct weight enumeration
    for q, n, r in [(5, 6, 2), (4, 5, 2), (7, 6, 3)]:
        f = field_of_order(q)
        code = LinearCode(rs_parity_check(f, n, r))
        assert min_hamming_distance_bruteforce(code) == r + 1


def leibniz_det(f, m):
    """Determinant as the signed sum over all permutations."""
    out = 0
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
        term = 1
        for r, c in enumerate(perm):
            term = f.mul(term, m[r][c])
        out = f.add(out, f.neg(term) if inversions % 2 else term)
    return out


# prime, binary and odd-extension fields
@settings(max_examples=300, deadline=None)
@given(
    q=st.sampled_from([2, 3, 7, 13, 4, 8, 16, 32, 64, 9, 25, 27]),
    size=st.sampled_from([3, 4]),
    plant=st.sampled_from(["random", "zero-row", "combination"]),
    data=st.data(),
)
def test_small_determinants_match_rank_and_leibniz(q, size, plant, data):
    f = field_of_order(q)
    elem = st.integers(0, q - 1)
    rows = [data.draw(st.lists(elem, min_size=size, max_size=size)) for _ in range(size)]
    i = data.draw(st.integers(0, size - 1))
    if plant == "zero-row":
        rows[i] = [0] * size
    elif plant == "combination":
        # row i becomes a combination of the others, so the matrix is singular
        combo = [0] * size
        for r in range(size):
            if r != i:
                c = data.draw(elem)
                combo = [f.add(x, f.mul(c, y)) for x, y in zip(combo, rows[r])]
        rows[i] = combo
    # a square matrix is its own first cyclic window
    det = window_dets(f, rows)[0]
    assert det == leibniz_det(f, rows)
    if size == 4:
        assert det4(f, rows) == det
    assert (det != 0) == (rank_of_vectors(f, rows) == size)
    if plant != "random":
        assert det == 0


def first_singular_window(f, cols, d):
    """Reference: the first cyclic window of d columns with rank < d, by
    one elimination per window, as the start index (or None)."""
    n = len(cols)
    for i in range(n):
        if rank_of_vectors(f, [cols[(i + t) % n] for t in range(d)]) < d:
            return i
    return None


# prime, 2^a, odd extension with the flat addition table, odd extension
# with the digit loop
@settings(max_examples=300, deadline=None)
@given(
    q=st.sampled_from([5, 7, 8, 9, 16, 27, 3**6]),
    d=st.sampled_from([3, 4]),
    plant=st.sampled_from(["none", "wrap", "inside", "zero-column", "zero-row", "repeat"]),
    data=st.data(),
)
def test_window_determinants_match_rank(q, d, plant, data):
    f = field_of_order(q)
    elem = st.integers(0, q - 1)
    n = data.draw(st.integers(d - 1, 14))
    cols = [data.draw(st.lists(elem, min_size=d, max_size=d)) for _ in range(n)]
    if plant in ("wrap", "inside"):
        # one column of a window becomes a combination of the window's other
        # columns; a window that starts in the last d - 1 columns wraps around
        if plant == "wrap":
            start = data.draw(st.integers(max(0, n - d + 1), n - 1))
        else:
            start = data.draw(st.integers(0, n - 1))
        window = [(start + t) % n for t in range(d)]
        target = data.draw(st.sampled_from(window))
        combo = [0] * d
        for j in sorted(set(window) - {target}):
            c = data.draw(elem)
            combo = [f.add(x, f.mul(c, y)) for x, y in zip(combo, cols[j])]
        cols[target] = combo
    elif plant == "zero-column":
        cols[data.draw(st.integers(0, n - 1))] = [0] * d
    elif plant == "repeat":
        j = data.draw(st.integers(0, n - 1))
        lam = data.draw(elem)
        cols[(j + 1) % n] = [f.mul(lam, x) for x in cols[j]]
    rows = [[c[r] for c in cols] for r in range(d)]
    if plant == "zero-row":
        rows[data.draw(st.integers(0, d - 1))] = [0] * n
        cols = [list(c) for c in zip(*rows)]
    dets = window_dets(f, rows)
    assert len(dets) == n
    for i, det in enumerate(dets):
        window = [cols[(i + t) % n] for t in range(d)]
        assert (det == 0) == (rank_of_vectors(f, window) < d), (q, d, i)
        assert det == leibniz_det(f, [[col[r] for col in window] for r in range(d)])
    # the checker's witness is the first zero determinant
    want = first_singular_window(f, cols, d)
    assert (dets.index(0) if 0 in dets else None) == want
    if d == 3:
        assert dets == window_dets3(f, rows)
    if plant != "none":
        assert want is not None


# prime, 2^a, odd extension with the flat addition table, odd extension
# with the digit loop
@pytest.mark.parametrize("q", [7, 13, 8, 16, 9, 25, 27, 729])
def test_minor_rows_and_window_dets_match_scalar_references(q):
    f = field_of_order(q)
    rng = random.Random(q)
    for _ in range(10):
        n = rng.randint(0, 12)
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(4)]
        k = rng.randint(0, n)
        rows[rng.randrange(4)][:k] = [0] * k  # leading zeros, perhaps a whole zero row
        u, v, s, t = rows
        want = [f.sub(f.mul(a, b), f.mul(c, d)) for a, b, c, d in zip(u, v, s, t[1:])]
        assert f.minor_rows(u, v, s, t[1:]) == want
    for d in (3, 4):
        for plant in ("random", "zero-row", "repeated-column"):
            for _ in range(4):
                n = rng.randint(d, 12)
                rows = [[rng.randrange(q) for _ in range(n)] for _ in range(d)]
                if plant == "zero-row":
                    rows[rng.randrange(d)] = [0] * n
                elif plant == "repeated-column":
                    j, k = rng.sample(range(n), 2)
                    for row in rows:
                        row[k] = row[j]
                dets = window_dets(f, rows)
                if d == 3:
                    assert dets == window_dets3(f, rows), (q, rows)
                else:
                    windows = [
                        [[row[(i + t) % n] for t in range(4)] for row in rows] for i in range(n)
                    ]
                    assert dets == [det4(f, w) for w in windows], (q, rows)
                if plant == "zero-row":
                    assert dets == [0] * n


def test_window_dets_needs_d_minus_one_columns():
    f = field_of_order(5)
    # with d - 1 columns every window repeats one
    assert window_dets(f, [[1, 2], [3, 4], [0, 1]]) == [0, 0]
    assert window_dets(f, [[1, 2, 3], [3, 4, 0], [0, 1, 1], [2, 2, 4]]) == [0, 0, 0]
    for rows in ([[1], [2], [3]], [[1, 2], [3, 4], [0, 1], [2, 2]]):
        with pytest.raises(ValueError):
            window_dets(f, rows)


def test_window_dets_takes_three_or_four_rows():
    f = field_of_order(5)
    for d in (2, 5):
        with pytest.raises(ValueError):
            window_dets(f, [[1] * 8] * d)


# prime, 2^a, odd extension with the flat addition table, odd extension
# with the digit loop
ARITHMETIC_FIELDS = [7, 8, 9, 3**6]


@st.composite
def matrices(draw):
    """(field, rows): random rows mixed with zero, repeated and dependent ones."""
    f = field_of_order(draw(st.sampled_from(ARITHMETIC_FIELDS)))
    elem = st.integers(0, f.q - 1)
    ncols = draw(st.integers(1, 7))
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["random", "zero", "repeat", "combination"]))
        if kind == "zero" or (kind != "random" and not rows):
            rows.append([0] * ncols)
        elif kind == "repeat":
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "combination":
            combo = [0] * ncols
            for row in rows:
                c = draw(elem)
                combo = [f.add(x, f.mul(c, y)) for x, y in zip(combo, row)]
            rows.append(combo)
        else:
            rows.append(draw(st.lists(elem, min_size=ncols, max_size=ncols)))
    return f, rows


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_forward_rank_equals_gauss_jordan_pivot_count(fm):
    f, rows = fm
    want = len(gauss_jordan(f, [list(r) for r in rows])[1])
    assert rank_of_vectors(f, rows) == want
    assert rank_of_vectors(f, [tuple(r) for r in rows]) == want
    if rows:
        assert rank(CodeMatrix.from_rows(f, rows)) == want


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_null_space_matches_gauss_jordan_reference(fm):
    # forward elimination plus back-substitution onto the free columns gives
    # full Gauss-Jordan's reduced rows there and the same basis, and keeps
    # its pivots on the matrix
    f, rows = fm
    if not rows:
        return
    m = CodeMatrix.from_rows(f, rows)
    reduced, pivots = gauss_jordan(f, [list(r) for r in rows])
    assert m.column_basis == tuple(pivots)
    free = [c for c in range(m.cols) if c not in pivots]
    on_free = [[row[c] for c in free] for row in reduced[: len(pivots)]]
    assert reduced_echelon(f, rows) == (pivots, free, on_free)
    m = CodeMatrix.from_rows(f, rows)
    assert null_space(m) == null_space_by_gauss_jordan(m)
    assert m.column_basis == tuple(pivots)


def test_column_basis_adds_no_attribute():
    # an attribute first set after __init__ would move the matrix's
    # attributes into a dict and slow every later read
    f = field_of_order(7)
    rows = [[1, 2, 3, 4], [2, 4, 6, 2]]
    read, eliminated, recorded = (CodeMatrix.from_rows(f, rows) for _ in range(3))
    keys = list(vars(read))
    assert read.column_basis == (0, 3)
    assert null_space(eliminated).column_basis == (0, 1)
    recorded.record_column_basis([0, 3])
    for m in (read, eliminated, recorded):
        assert list(vars(m)) == keys
        assert m.column_basis == (0, 3)
    # the basis is a cache: it takes no part in equality or the repr
    assert read == CodeMatrix.from_rows(f, rows)
    assert repr(read) == repr(CodeMatrix.from_rows(f, rows))


@pytest.mark.parametrize("as_row", [list, tuple])
def test_rank_of_vectors_finds_dependencies_below_the_first_pivot(as_row):
    f = field_of_order(7)

    def r(rows):
        return rank_of_vectors(f, [as_row(v) for v in rows])

    # the first pivot clears row 1 to (1, 1), which equals row 2
    assert r([[1, 0, 0], [1, 1, 1], [0, 1, 1]]) == 2
    # the first column's pivot is the second row
    assert r([[0, 1, 1], [1, 1, 1], [1, 0, 0]]) == 2
    # the dependency shows only in the last column
    assert r([[1, 2, 3], [1, 2, 4], [0, 0, 5]]) == 2
    # zero and scaled rows
    assert r([[0, 0, 0], [2, 4, 6], [1, 2, 3]]) == 1
    assert r([[0, 0, 0]]) == 0 and r([]) == 0
    assert r([[3, 1, 4], [1, 5, 2], [6, 5, 3], [5, 0, 1]]) == 3
    m = CodeMatrix.from_rows(f, [[1, 0, 0], [1, 1, 1], [0, 1, 1]])
    assert rank(m) == 2 and rank(transpose(m)) == 2


@pytest.mark.parametrize(
    "route, q, n",
    [("d5", 7, 30), ("d5", 9, 91), ("d6", 8, 40), ("d6", 9, 82), ("ec", 16, 22), ("ec", 27, 35)],
)
def test_constructions_check_no_matrix_entry(route, q, n, monkeypatch):
    # a matrix the package builds from its own points is checked for its
    # shape only; entries are checked where file data enters (from_rows)
    from pairmds.d5 import construct_d5
    from pairmds.d6 import construct_d6
    from pairmds.ecmds import construct_ec
    from pairmds.gf import FieldSpec

    calls = [0]
    check = FieldSpec.check

    def counted(self, x):
        calls[0] += 1
        return check(self, x)

    monkeypatch.setattr(FieldSpec, "check", counted)
    f = field_of_order(q)
    if route == "ec":
        code, cert, _ = construct_ec(f, n, n - 5)
    else:
        code, cert = (construct_d5 if route == "d5" else construct_d6)(f, n)[:2]
    assert cert.ok and code.n == n
    # at most the five coefficients of a newly built curve
    assert calls[0] <= 5, calls
