import functools
import itertools
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pairmds import pairmetric
from pairmds.d6 import _quadric_points
from pairmds.gf import field, field_of_order
from pairmds.linalg import (
    CodeMatrix,
    EnumerationCapExceeded,
    LinearCode,
    enumerate_codewords,
    rank_of_vectors,
)
from pairmds.pairmetric import (
    COND_ANY_SMALL_INDEPENDENT,
    COND_CONSECUTIVE_INDEPENDENT,
    COND_DEPENDENT_SET_EXISTS,
    PairCertificate,
    _first_dependent_subset,
    check_mds_conditions,
    check_theorem_conditions,
    min_pair_distance_bruteforce,
    pair_distance,
    pair_weight,
)

from goldens import H2_FULL, H2_N5
from reference import (
    columns_independent,
    hamming_weight,
    min_hamming_distance_bruteforce,
    pair_read,
    theorem_certificate_by_search,
)


def test_pair_read():
    assert pair_read((7, 8, 9)) == ((7, 8), (8, 9), (9, 7))
    assert pair_read((5, 5, 5, 5)) == ((5, 5),) * 4
    for n in range(2, 8):
        assert len(pair_read(tuple(range(n)))) == n
    with pytest.raises(ValueError):
        pair_read((1,))


def test_pair_weight_examples():
    assert pair_weight((1, 0, 0, 0)) == 2
    assert pair_weight((0, 0, 0, 0)) == 0
    assert pair_weight((1, 1, 0, 1)) == 4
    # definition oracle: count non-(0,0) entries of the pair read
    for u in itertools.product(range(2), repeat=6):
        want = sum(1 for p in pair_read(u) if p != (0, 0))
        assert pair_weight(u) == want


def count_cyclic_runs(u):
    """Maximal cyclic runs of nonzero coordinates (independent oracle)."""
    n = len(u)
    if all(u):
        return 1
    if not any(u):
        return 0
    runs = 0
    for i in range(n):
        if u[i] != 0 and u[(i - 1) % n] == 0:
            runs += 1
    return runs


def test_pair_weight_run_structure():
    for q, n in [(2, 8), (3, 6), (4, 5)]:
        f = field_of_order(q)
        for u in itertools.product(range(q), repeat=n):
            w = hamming_weight(u)
            if w == 0:
                assert pair_weight(u) == 0
            elif w == n:
                assert pair_weight(u) == n
            else:
                assert pair_weight(u) == w + count_cyclic_runs(u)


def test_pair_distance_examples():
    f = field(5, 1)
    assert pair_distance(f, (1, 2, 3), (1, 2, 3)) == 0
    assert pair_distance(f, (1, 2, 3, 4), (1, 2, 0, 4)) == 2
    with pytest.raises(ValueError):
        pair_distance(f, (1, 2), (1, 2, 3))


def test_pair_distance_bounds_exhaustive_gf2():
    f = field(2, 1)
    for n in range(2, 9):
        for u in itertools.product((0, 1), repeat=n):
            for v in itertools.product((0, 1), repeat=n):
                dh = sum(1 for a, b in zip(u, v) if a != b)
                dp = pair_distance(f, u, v)
                diff = tuple(f.sub(a, b) for a, b in zip(u, v))
                assert dp == pair_weight(diff)
                if 0 < dh < n:
                    assert dh + 1 <= dp <= 2 * dh


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_pair_distance_bounds_randomized(q):
    f = field_of_order(q)
    rng = random.Random(q * 1009)
    for _ in range(10_000):
        n = rng.randint(2, 12)
        u = tuple(rng.randrange(q) for _ in range(n))
        v = tuple(rng.randrange(q) for _ in range(n))
        dh = sum(1 for a, b in zip(u, v) if a != b)
        dp = pair_distance(f, u, v)
        assert dp == pair_weight(tuple(f.sub(a, b) for a, b in zip(u, v)))
        if 0 < dh < n:
            assert dh + 1 <= dp <= 2 * dh


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_pair_distance_is_weight_of_difference(data):
    q = data.draw(st.sampled_from([2, 3, 4, 5, 9]))
    n = data.draw(st.integers(2, 10))
    f = field_of_order(q)
    u = tuple(data.draw(st.integers(0, q - 1)) for _ in range(n))
    v = tuple(data.draw(st.integers(0, q - 1)) for _ in range(n))
    assert pair_distance(f, u, v) == pair_weight([f.sub(a, b) for a, b in zip(u, v)])


def test_min_pair_distance_bruteforce_examples():
    f2 = field(2, 1)
    assert min_pair_distance_bruteforce(LinearCode(CodeMatrix.from_rows(f2, H2_N5))) == 5
    assert min_pair_distance_bruteforce(LinearCode(CodeMatrix.from_rows(f2, H2_FULL))) == 5


# words with no zero and with one zero are drawn rarely at the longer
# lengths, so each is also given as an example
@settings(max_examples=300, deadline=None)
@given(u=st.lists(st.sampled_from([0, 0, 0, 1, 7]), min_size=2, max_size=12))
@example(u=[1, 7])
@example(u=[7] * 12)
@example(u=[0, 7])
@example(u=[1] * 11 + [0])
@example(u=[7, 1, 0, 1, 7])
def test_pair_weight_matches_the_definition(u):
    n = len(u)
    want = sum(1 for i in range(n) if (u[i], u[(i + 1) % n]) != (0, 0))
    assert pair_weight(u) == pair_weight(tuple(u)) == want
    assert hamming_weight(u) == sum(1 for x in u if x)


def test_bruteforce_minima_match_a_plain_loop():
    from pairmds.d5 import build_h
    from pairmds.linalg import rs_parity_check

    codes = [LinearCode(build_h(field_of_order(q), n)[0]) for q, n in [(4, 9), (5, 8), (8, 7), (9, 7)]]
    codes += [LinearCode(rs_parity_check(field_of_order(q), n, r)) for q, n, r in [(7, 8, 4), (27, 5, 2)]]
    for code in codes:
        pair_best = ham_best = None
        for cw in enumerate_codewords(code):
            if any(cw):
                w, h = pair_weight(cw), hamming_weight(cw)
                pair_best = w if pair_best is None else min(pair_best, w)
                ham_best = h if ham_best is None else min(ham_best, h)
        assert min_pair_distance_bruteforce(code) == pair_best
        assert min_hamming_distance_bruteforce(code) == ham_best


# q^k at most this many words per example; GF(257) has no addition table, so
# each of its words is one odometer step
_PROPERTY_WORDS = 3000


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_pruned_scan_matches_the_plain_minima(data):
    q = data.draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 257]), label="q")
    f = field_of_order(q)
    n = data.draw(st.integers(2, 4 if q == 257 else 9), label="n")
    k_max = min(n - 1, 2) if q == 257 else max(k for k in range(1, n) if q**k <= _PROPERTY_WORDS)
    k = data.draw(st.integers(1, k_max), label="k")
    r = n - k
    rows = [data.draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n)) for _ in range(r)]
    # a zero column gives a weight-1 word, a repeated one a weight-2 word:
    # non-MDS codes whose minimum is small
    defect = data.draw(st.sampled_from(["none", "zero", "repeat"]), label="defect")
    if defect != "none":
        i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        for row in rows:
            row[j] = 0 if defect == "zero" else row[i]
    assume(rank_of_vectors(f, rows) == r)
    code = LinearCode(CodeMatrix.from_rows(f, rows))
    words = [w for w in enumerate_codewords(code) if any(w)]
    assert min_pair_distance_bruteforce(code) == min(map(pair_weight, words))
    assert min_hamming_distance_bruteforce(code) == min(map(hamming_weight, words))


def test_pruned_scan_weighs_few_words(monkeypatch):
    # a d5 code of the oracle benchmark: 7^5 = 16,807 words, nearly all of
    # them too heavy in nonzero entries to beat the minimum
    from pairmds.d5 import build_h

    code = LinearCode(build_h(field_of_order(7), 8)[0])
    calls = [0]

    def counted(u):
        calls[0] += 1
        return pair_weight(u)

    monkeypatch.setattr(pairmetric, "pair_weight", counted)
    assert min_pair_distance_bruteforce(code) == 5
    assert 0 < calls[0] < 7**5 // 10


def test_min_pair_distance_repetition_code():
    # parity check rows e_i - e_{i+1}: codewords are the constants
    for q, n in [(3, 5), (5, 4)]:
        f = field_of_order(q)
        rows = []
        for i in range(n - 1):
            row = [0] * n
            row[i] = 1
            row[i + 1] = f.neg(1)
            rows.append(row)
        code = LinearCode(CodeMatrix.from_rows(f, rows))
        assert code.k == 1
        assert min_pair_distance_bruteforce(code) == n


def test_check_theorem_conditions_success():
    f2 = field(2, 1)
    cert = check_theorem_conditions(CodeMatrix.from_rows(f2, H2_N5), 3)
    assert cert.ok
    assert cert.d_pair == 5
    assert cert.dim_exponent == 2
    assert cert.dependent_set is not None
    # the witness really is dependent
    assert not columns_independent(CodeMatrix.from_rows(f2, H2_N5), cert.dependent_set)


def test_check_theorem_conditions_condition1_failure():
    f = field(5, 1)
    # columns 0 and 3 are proportional
    m = CodeMatrix.from_columns(
        f, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 1)]
    )
    cert = check_theorem_conditions(m, 3)
    assert not cert.ok
    assert cert.failed_condition == COND_ANY_SMALL_INDEPENDENT
    assert cert.failing_set == (0, 3)


def test_check_theorem_conditions_condition2_failure():
    # a Vandermonde (MDS) matrix has no dependent triple
    from pairmds.linalg import rs_parity_check

    f = field(7, 1)
    cert = check_theorem_conditions(rs_parity_check(f, 6, 3), 3)
    assert not cert.ok
    assert cert.failed_condition == COND_DEPENDENT_SET_EXISTS
    assert cert.failing_set is None


def test_check_theorem_conditions_condition3_failure():
    f = field(5, 1)
    # (e1, e2, e1+e2) is a dependent consecutive window; all pairs independent
    m = CodeMatrix.from_columns(
        f, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 2, 4)]
    )
    cert = check_theorem_conditions(m, 3)
    assert not cert.ok
    assert cert.failed_condition == COND_CONSECUTIVE_INDEPENDENT
    assert cert.failing_set == [0, 1, 2] or tuple(cert.failing_set) == (0, 1, 2)


def first_singular_window(f, cols, d_h):
    """Reference for condition 3: the first cyclic window of rank < d_h, by elimination."""
    n = len(cols)
    for i in range(n):
        window = tuple((i + t) % n for t in range(d_h))
        if rank_of_vectors(f, [cols[j] for j in window]) < d_h:
            return window
    return None


@pytest.mark.parametrize("q,n,k", [(8, 40, 18), (9, 50, 10), (11, 60, 12)])
def test_condition3_witness_is_a_planted_wrap_window(q, n, k):
    from pairmds.d5 import construct_d5

    f = field_of_order(q)
    cols = construct_d5(f, n)[0].parity_check.columns()
    assert rank_of_vectors(f, [cols[n - 1], cols[0], cols[k]]) == 2
    # moving column k next to columns n-1 and 0 plants a dependent window
    # that wraps around; every earlier window stays independent
    cols[1], cols[k] = cols[k], cols[1]
    cert = check_theorem_conditions(CodeMatrix.from_columns(f, cols), 3)
    assert cert.failed_condition == COND_CONSECUTIVE_INDEPENDENT
    assert tuple(cert.failing_set) == (n - 1, 0, 1) == first_singular_window(f, cols, 3)


def planted_ec_window(d_h, q, n, start, slot, k):
    """An elliptic-curve parity check with d_h rows meets conditions 1-3;
    swapping column k into `slot` plants a dependent window that starts at
    `start`, and every earlier window stays independent."""
    from pairmds.ecmds import construct_ec

    assert d_h not in pairmetric._WINDOW_KERNEL_ROWS
    f = field_of_order(q)
    h = construct_ec(f, n, d_h)[0].parity_check
    assert check_theorem_conditions(h, d_h).ok
    planted = tuple((start + t) % n for t in range(d_h))
    assert slot in planted and k not in planted
    cols = h.columns()
    cols[slot], cols[k] = cols[k], cols[slot]
    assert rank_of_vectors(f, [cols[j] for j in planted]) < d_h
    cert = check_theorem_conditions(CodeMatrix.from_columns(f, cols), d_h)
    assert cert.failed_condition == COND_CONSECUTIVE_INDEPENDENT
    assert tuple(cert.failing_set) == planted == first_singular_window(f, cols, d_h)


# condition 3 eliminates window by window at the row counts outside the
# kernel's: d_H = 7 and 5 from elliptic curves, d_H = 2 by hand
@pytest.mark.parametrize("q,n,start,slot,k", [(13, 16, 13, 3, 5), (11, 15, 10, 11, 2)])
def test_condition3_eliminates_each_window_above_the_kernel_rows(q, n, start, slot, k):
    planted_ec_window(7, q, n, start, slot, k)


@pytest.mark.parametrize("q,n,start,slot,k", [(13, 16, 12, 15, 10), (16, 20, 16, 16, 15)])
def test_condition3_eliminates_each_window_at_five_rows(q, n, start, slot, k):
    planted_ec_window(5, q, n, start, slot, k)


@pytest.mark.parametrize("q", [7, 8, 9])
def test_condition3_eliminates_each_window_at_two_rows(q):
    # columns (1, x) for every x, then (1, 0) again: no column is zero, the
    # first and last are dependent, and so is the window that wraps around
    f = field_of_order(q)
    cols = [(1, x) for x in range(q)] + [(1, 0)]
    cert = check_theorem_conditions(CodeMatrix.from_columns(f, cols), 2)
    assert cert.failed_condition == COND_CONSECUTIVE_INDEPENDENT
    assert tuple(cert.failing_set) == (q, 0) == first_singular_window(f, cols, 2)


@functools.lru_cache(maxsize=None)
def construction_columns(q, n, d_pair):
    from pairmds.d5 import construct_d5
    from pairmds.d6 import construct_d6

    build = construct_d5 if d_pair == 5 else construct_d6
    return tuple(build(field_of_order(q), n)[0].parity_check.columns())


@settings(max_examples=60, deadline=None)
@given(
    point=st.sampled_from([(7, 30, 5), (8, 40, 5), (9, 25, 5), (7, 20, 6), (8, 30, 6)]),
    data=st.data(),
)
def test_condition3_witness_matches_elimination_on_permuted_columns(point, data):
    # permuting columns keeps conditions 1 and 2, so condition 3 decides
    q, n, d_pair = point
    f = field_of_order(q)
    d_h = d_pair - 2
    cols = list(data.draw(st.permutations(construction_columns(q, n, d_pair))))
    cert = check_theorem_conditions(CodeMatrix.from_columns(f, cols), d_h)
    want = first_singular_window(f, cols, d_h)
    if want is None:
        assert cert.ok
    else:
        assert cert.failed_condition == COND_CONSECUTIVE_INDEPENDENT
        assert tuple(cert.failing_set) == want


def test_check_theorem_conditions_repeated_identity_padding():
    f = field(5, 1)
    m = CodeMatrix.from_columns(
        f, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 0), (0, 1, 0)]
    )
    cert = check_theorem_conditions(m, 3)
    assert not cert.ok


def test_check_mds_conditions():
    from pairmds.linalg import rs_parity_check

    f = field(7, 1)
    cert = check_mds_conditions(rs_parity_check(f, 8, 4))
    assert cert.ok and cert.d_pair == 6 and cert.dim_exponent == 4
    # breaking one entry creates a dependent 4-set
    rows = [list(r) for r in rs_parity_check(f, 8, 4).entries]
    rows[0][0] = rows[0][1]
    rows[1][0] = rows[1][1]
    rows[2][0] = rows[2][1]
    rows[3][0] = rows[3][1]
    cert2 = check_mds_conditions(CodeMatrix.from_rows(f, rows))
    assert not cert2.ok and cert2.failing_set is not None


# prime, binary and odd-extension fields
_CURVE_FIELDS = [5, 7, 11, 4, 8, 16, 9, 25, 27]
_NEAR_MISSES = [
    "repeated-node", "two-infinities", "zero-column", "scaled-row", "changed-entry"
]


@st.composite
def curve_matrices(draw):
    """Columns l * (1, x, ..., x^(r-1)) at distinct nodes x with random
    scales l != 0, an optional point at infinity at a random position,
    and, five times in six, one near-miss; returns the field, the columns, r
    and the near-miss (None for an untouched curve)."""
    q = draw(st.sampled_from(_CURVE_FIELDS))
    f = field_of_order(q)
    infinity = draw(st.booleans())
    n = draw(st.integers(2, min(q + infinity, 9)))
    r = draw(st.integers(1, n))
    nodes = draw(st.lists(st.integers(0, q - 1), min_size=n - infinity,
                          max_size=n - infinity, unique=True))
    cols = [[f.pow(x, t) for t in range(r)] for x in nodes]
    if infinity:
        cols.insert(draw(st.integers(0, len(cols))), [0] * (r - 1) + [1])
    scalar = st.integers(1, q - 1)
    scales = draw(st.lists(scalar, min_size=n, max_size=n))
    cols = [[f.mul(lam, x) for x in c] for c, lam in zip(cols, scales)]
    miss = draw(st.sampled_from([None] + _NEAR_MISSES))
    j, i = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    if miss == "repeated-node":
        # a rescaled copy of another column: a node, or infinity, repeated
        lam = draw(scalar)
        cols[j] = [f.mul(lam, x) for x in cols[i]]
    elif miss == "two-infinities":
        cols[i] = [0] * (r - 1) + [draw(scalar)]
        cols[j] = [0] * (r - 1) + [draw(scalar)]
    elif miss == "zero-column":
        cols[j] = [0] * r
    elif miss == "scaled-row":
        t, c = draw(st.integers(0, r - 1)), draw(st.integers(2, q - 1))
        for col in cols:
            col[t] = f.mul(c, col[t])
    elif miss == "changed-entry":
        cols[j][draw(st.integers(0, r - 1))] = draw(st.integers(0, q - 1))
    return f, [tuple(c) for c in cols], r, miss


def test_a_column_with_first_entry_zero_is_off_the_curve():
    # (0, 1, 1) passes the power rows as node 1; with nodes 2 and 4 = 1 - 2
    # the first three columns are dependent over GF(5), and the nodes 0 and
    # 3 after them give the n >= r + 2 columns that a certificate needs
    f = field(5, 1)
    cols = [(1, 2, 4), (0, 1, 1), (1, 4, 1), (1, 0, 0), (1, 3, 4)]
    cert = check_mds_conditions(CodeMatrix.from_rows(f, [list(r) for r in zip(*cols)]))
    assert not cert.ok and cert.failing_set == (0, 1, 2)


@settings(max_examples=400, deadline=None)
@given(drawn=curve_matrices())
def test_mds_certificate_matches_the_search_on_and_near_the_curve(drawn):
    # the curve test certifies only matrices in which the search finds no
    # dependent r-set, and a failure certificate is the search's
    f, cols, r, miss = drawn
    h = CodeMatrix.from_rows(f, [list(row) for row in zip(*cols)])
    if r >= len(cols) - 1:
        # dimension 1 or less: no pair distance r + 2 to certify
        with pytest.raises(ValueError):
            check_mds_conditions(h)
        return
    cert = check_mds_conditions(h)
    want = _first_dependent_subset(f, cols, r)
    assert cert.ok == (want is None), (f, cols, r)
    if miss is None:
        assert cert.ok
    if not cert.ok:
        assert cert.failing_set == want
    k = len(cols) - r
    if 1 <= k and f.q ** k <= 3000:
        if rank_of_vectors(f, h.entries) < r:
            assert not cert.ok
        else:
            # MDS: the code's least Hamming weight is r + 1
            assert cert.ok == (min_hamming_distance_bruteforce(LinearCode(h)) == r + 1)


def test_check_mds_conditions_rejects_more_rows_than_columns():
    # no r-set of columns exists, so the search would find no dependent one
    f = field(5, 1)
    h = CodeMatrix.from_rows(f, [[1, 0], [0, 1], [1, 1]])
    with pytest.raises(ValueError):
        check_mds_conditions(h)


def test_check_mds_conditions_rejects_dimension_one():
    # the one nonzero word of the [6, 1] Reed-Solomon code over GF(7), up to
    # scale, has weight 6 and so pair weight 6, short of r + 2 = 7; at
    # r = n - 2 the certified pair distance n is the brute-force one
    from pairmds.linalg import rs_parity_check

    f = field(7, 1)
    with pytest.raises(ValueError, match="need n >= r"):
        check_mds_conditions(rs_parity_check(f, 6, 5))
    h = rs_parity_check(f, 6, 4)
    cert = check_mds_conditions(h)
    assert cert.ok and cert.d_pair == 6 == min_pair_distance_bruteforce(LinearCode(h))


# prime, binary and odd-extension fields, and the two fixed-matrix fields
_QUADRIC_FIELDS = [3, 4, 5, 7, 8, 9, 16]
_QUADRIC_MUTATIONS = ["changed-entry", "rescaled", "duplicated", "zeroed"]


@st.composite
def four_row_matrices(draw):
    """A 4-row matrix of 6 to 16 columns: random entries one time in three;
    otherwise distinct points of the standard elliptic quadric in random
    order, each scaled by a random l != 0, and, four times in five, one
    column mutated.  Returns the field, the columns and the mutation
    ("random" for random entries, None for an untouched quadric)."""
    q = draw(st.sampled_from(_QUADRIC_FIELDS))
    f = field_of_order(q)
    entry = st.integers(0, q - 1)
    scalar = st.integers(1, q - 1)
    n = draw(st.integers(6, min(16, q * q + 1)))
    if draw(st.integers(0, 2)) == 0:
        cols = draw(st.lists(st.tuples(entry, entry, entry, entry), min_size=n, max_size=n))
        return f, cols, "random"
    pts = _quadric_points(f)
    picks = draw(st.lists(st.integers(0, len(pts) - 1), min_size=n, max_size=n, unique=True))
    scales = draw(st.lists(scalar, min_size=n, max_size=n))
    cols = [[f.mul(lam, x) for x in pts[i]] for i, lam in zip(picks, scales)]
    miss = draw(st.sampled_from([None] + _QUADRIC_MUTATIONS))
    j, i = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    if miss == "changed-entry":
        cols[j][draw(st.integers(0, 3))] = draw(entry)
    elif miss == "rescaled":
        lam = draw(scalar)
        cols[j] = [f.mul(lam, x) for x in cols[j]]
    elif miss == "duplicated":
        lam = draw(scalar)
        cols[j] = [f.mul(lam, x) for x in cols[i]]
    elif miss == "zeroed":
        cols[j] = [0] * 4
    return f, [tuple(c) for c in cols], miss


@settings(max_examples=400, deadline=None)
@given(drawn=four_row_matrices())
def test_theorem_certificate_matches_the_search_on_and_near_the_quadric(drawn):
    # the quadric test certifies condition 1 only where the search finds no
    # dependent triple, and every certificate is the one the search gives
    f, cols, miss = drawn
    got = check_theorem_conditions(CodeMatrix.from_columns(f, cols), 4)
    want = theorem_certificate_by_search(CodeMatrix.from_columns(f, cols), 4)
    assert (got.ok, got.failed_condition, got.failing_set, got.dependent_set) == (
        want.ok, want.failed_condition, want.failing_set, want.dependent_set
    ), (f, cols, miss)
    forms = [f.normal_form(c) for c in cols]
    if miss in (None, "rescaled"):
        assert pairmetric._on_elliptic_quadric(f, cols, forms)
        assert got.failed_condition != COND_ANY_SMALL_INDEPENDENT
    elif miss in ("duplicated", "zeroed"):
        assert not pairmetric._on_elliptic_quadric(f, cols, forms)
        assert got.failed_condition == COND_ANY_SMALL_INDEPENDENT


@pytest.mark.parametrize("route", ["d5", "ovoid", "rs", "rs-tall"])
def test_passing_check_records_the_pivot_columns(route):
    # a passing check records its first rows-many columns, and those are
    # the pivot columns that an elimination of the matrix finds
    from pairmds.d5 import build_h
    from pairmds.d6 import construct_d6
    from pairmds.linalg import rs_parity_check
    from reference import gauss_jordan

    f = field_of_order(7)
    if route == "d5":
        h, cert = build_h(f, 20)
    elif route == "ovoid":
        code, cert, _ = construct_d6(f, 20)
        h = code.parity_check
    else:
        h = rs_parity_check(f, 8, 6 if route == "rs-tall" else 4)
        cert = check_mds_conditions(h)
    assert cert.ok
    pivots = gauss_jordan(f, [list(r) for r in h.entries])[1]
    assert h._column_basis is not None  # recorded, not eliminated on read
    assert h.column_basis == tuple(range(h.rows)) == tuple(pivots)


def test_failing_check_records_nothing():
    from pairmds.linalg import rs_parity_check

    f = field(7, 1)
    rows = [list(r) for r in rs_parity_check(f, 8, 4).entries]
    for row in rows:
        row[0] = row[1]
    h = CodeMatrix.from_rows(f, rows)
    assert not check_mds_conditions(h).ok
    assert not check_theorem_conditions(h, 4).ok
    assert h._column_basis is None


def first_dependent_subset_by_scan(f, cols, size):
    """Reference: the first dependent subset in itertools.combinations order."""
    for subset in itertools.combinations(range(len(cols)), size):
        if rank_of_vectors(f, [cols[j] for j in subset]) < size:
            return subset
    return None


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_first_dependent_subset_matches_combinations_scan(data):
    # prime, binary and odd-extension fields; zero and repeated (rescaled)
    # columns make small dependent sets common
    q = data.draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 25]))
    f = field_of_order(q)
    rows = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 8))
    entry = st.integers(0, q - 1)
    cols = []
    for _ in range(n):
        kind = data.draw(st.sampled_from(["random", "random", "zero", "repeat"]))
        if kind == "zero":
            cols.append((0,) * rows)
        elif kind == "repeat" and cols:
            base = data.draw(st.sampled_from(cols))
            lam = data.draw(st.integers(1, q - 1))
            cols.append(tuple(f.mul(lam, x) for x in base))
        else:
            cols.append(tuple(data.draw(entry) for _ in range(rows)))
    for size in range(1, rows + 2):
        want = first_dependent_subset_by_scan(f, cols, size)
        assert _first_dependent_subset(f, cols, size) == want, (q, cols, size)


@pytest.mark.parametrize(
    "cols, size, want",
    [
        # column 0 has no partner; of the two repeated points the earlier wins
        ([(1, 0), (0, 1), (1, 1), (0, 2), (2, 2)], 2, (1, 3)),
        # the first repeat of a point, not a later one
        ([(1, 0), (0, 1), (0, 2), (0, 3)], 2, (1, 2)),
        # a zero column pairs with every column before it
        ([(1, 0), (0, 1), (0, 0)], 2, (0, 2)),
        ([(0, 0), (1, 0), (0, 1)], 2, (0, 1)),
        ([(1, 0, 0), (0, 1, 0), (0, 0, 0), (0, 0, 1)], 3, (0, 1, 2)),
        # from the first pivot, a repeated image that is not the first one's
        ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1)], 3, (0, 2, 3)),
        # the first image's partner lies past the first prefix of eight
        (
            [(1, 0, 0, 0), (0, 1, 0, 0)]
            + [(0, 0, 1, t) for t in range(5)]
            + [(0, 1, 1, t) for t in range(4)]
            + [(0, 2, 0, 0)],
            3,
            (0, 1, 11),
        ),
    ],
)
def test_first_dependent_subset_examples(cols, size, want):
    f = field(5, 1)
    assert first_dependent_subset_by_scan(f, cols, size) == want
    assert _first_dependent_subset(f, cols, size) == want


def reference_normal_form(f, coords):
    """A vector scaled by field-method calls so its first nonzero entry is 1."""
    for x in coords:
        if x:
            inv = f.inv(x)
            return tuple(f.mul(inv, y) for y in coords)
    return None


def reference_first_dependent_subset(f, cols, size, cap):
    """The dependent-set search with one field-method call per element.

    Same projection-from-a-point recursion and the same lazy size-2 level
    as `_first_dependent_subset`, with raw (unnormalised) projections and
    a projected-column count: returns (witness, projected) and raises
    EnumerationCapExceeded once more than `cap` columns are projected.
    """
    left = cap
    projected = 0

    def project(pivot, later):
        nonlocal left, projected
        p = next(t for t, x in enumerate(pivot) if x)
        keep = [t for t in range(len(pivot)) if t != p]
        inv = f.inv(pivot[p])
        neg = [f.neg(f.mul(inv, pivot[t])) for t in keep]
        for v in later:
            left -= 1
            if left < 0:
                raise EnumerationCapExceeded("cap")
            projected += 1
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
        key0 = reference_normal_form(f, head)
        first, partner = {}, {}
        for k, v in enumerate(it, 1):
            key = reference_normal_form(f, v)
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

    witness = search(cols, size) if size >= 1 else None
    return witness, projected


# one field per arithmetic path: prime, 2^a, odd extension with the flat
# addition table (q <= 2^8) and odd extension with the digit loop
ARITHMETIC_PATHS = {
    "prime": (5, 13),
    "binary": (4, 16),
    "oddext-table": (9, 27),
    "oddext-digits": (729,),
}


@st.composite
def column_lists(draw):
    q = draw(st.sampled_from([q for qs in ARITHMETIC_PATHS.values() for q in qs]))
    f = field_of_order(q)
    rows = draw(st.integers(1, 5))
    n = draw(st.integers(1, 24))
    entry = st.integers(0, q - 1)
    cols = []
    for _ in range(n):
        kind = draw(st.sampled_from(["random", "random", "random", "zero", "repeat", "sum"]))
        if kind == "zero":
            cols.append((0,) * rows)
        elif kind == "repeat" and cols:
            base = draw(st.sampled_from(cols))
            lam = draw(st.integers(1, q - 1))
            cols.append(tuple(f.mul(lam, x) for x in base))
        elif kind == "sum" and len(cols) >= 2:
            # a planted dependent triple
            u, v = draw(st.sampled_from(cols)), draw(st.sampled_from(cols))
            lam = draw(entry)
            cols.append(tuple(f.add(x, f.mul(lam, y)) for x, y in zip(u, v)))
        else:
            cols.append(tuple(draw(entry) for _ in range(rows)))
    return f, cols


def with_scan_cap(cap, fn, *args):
    saved = pairmetric._SUBSET_SCAN_CAP
    pairmetric._SUBSET_SCAN_CAP = cap
    try:
        return fn(*args)
    finally:
        pairmetric._SUBSET_SCAN_CAP = saved


@settings(max_examples=300, deadline=None)
@given(drawn=column_lists(), data=st.data())
def test_first_dependent_subset_matches_the_reference_and_its_cap(drawn, data):
    f, cols = drawn
    size = data.draw(st.integers(1, len(cols[0]) + 1))
    want, projected = reference_first_dependent_subset(f, cols, size, cap=10**9)
    assert _first_dependent_subset(f, cols, size) == want, (f, cols, size)
    # the search raises exactly when the reference does: on every cap below
    # its projected-column count, and on none from that count up
    caps = {projected, projected + 1, data.draw(st.integers(0, projected + 2))}
    if projected:
        caps |= {projected - 1, 0}
    for cap in sorted(caps):
        try:
            ref = reference_first_dependent_subset(f, cols, size, cap)[0]
        except EnumerationCapExceeded:
            ref = "cap"
        assert ref == ("cap" if cap < projected else want)
        try:
            got = with_scan_cap(cap, _first_dependent_subset, f, cols, size)
        except EnumerationCapExceeded:
            got = "cap"
        assert got == ref, (f, cols, size, cap, projected)


def _seeded_columns(rng, f, rows, n):
    """Reed-Solomon columns (1, x, x^2, ...) and the point at infinity, mixed
    with random, zero, rescaled and summed columns, so that most pivots of
    every level lead with 1 and dependent sets are common."""
    q = f.q
    cols = []
    for _ in range(n):
        kinds = ["rs", "random", "zero", "infinity", "repeat", "sum"]
        kind = rng.choices(kinds, [24, 6, 1, 1, 1, 1])[0]
        if kind == "rs":
            x = rng.randrange(q)
            cols.append(tuple(f.pow(x, t) for t in range(rows)))
        elif kind == "infinity":
            cols.append((0,) * (rows - 1) + (1,))
        elif kind == "zero":
            cols.append((0,) * rows)
        elif kind == "repeat" and cols:
            cols.append(tuple(f.mul(rng.randrange(1, q), x) for x in rng.choice(cols)))
        elif kind == "sum" and len(cols) >= 2:
            u, v = rng.sample(cols, 2)
            lam = rng.randrange(q)
            cols.append(tuple(f.add(x, f.mul(lam, y)) for x, y in zip(u, v)))
        else:
            cols.append(tuple(rng.randrange(q) for _ in range(rows)))
    return cols


# GF(729) has no addition table, so its size-3 level projects tuples
@pytest.mark.parametrize("q", [7, 8, 9, 13, 16, 25, 27, 729])
def test_int_coded_size_three_level_gives_the_reference_witness(q):
    f = field_of_order(q)
    rng = random.Random(q)
    dependent = searches = 0
    for _ in range(60):
        rows = rng.randint(3, 5)
        cols = _seeded_columns(rng, f, rows, rng.randint(rows, 18))
        for size in range(3, rows + 1):
            want = reference_first_dependent_subset(f, cols, size, cap=10**9)[0]
            assert _first_dependent_subset(f, cols, size) == want, (cols, size)
            searches += 1
            dependent += want is not None
    assert 0.2 * searches < dependent < 0.95 * searches


def test_a_pair_inside_the_budget_is_returned():
    # the first pivot's later columns overrun the budget, but the first
    # vector's partner lies inside it: a reader of pairs stops there
    f = field(5, 1)
    cols = [(1, 0, 0), (0, 1, 0), (1, 1, 0)] + [(1, x, (1 + x * x) % 5) for x in range(5)]
    size = 3
    want = (0, 1, 2)
    for cap in range(0, 8):
        try:
            ref = reference_first_dependent_subset(f, cols, size, cap)[0]
        except EnumerationCapExceeded:
            ref = "cap"
        try:
            got = with_scan_cap(cap, _first_dependent_subset, f, cols, size)
        except EnumerationCapExceeded:
            got = "cap"
        assert got == ref == ("cap" if cap < 2 else want), cap


def test_checker_makes_no_per_element_field_calls(monkeypatch):
    # conditions 1 and 2 run on the field tables, and condition 3 takes
    # the window determinants on the row kernels, at d_H = 3 and 4 alike
    from pairmds.d5 import construct_d5
    from pairmds.d6 import construct_d6
    from pairmds.gf import FieldSpec
    from pairmds.linalg import rs_parity_check

    d5_h = construct_d5(field_of_order(25), 651)[0].parity_check
    d6_h = construct_d6(field_of_order(9), 82)[0].parity_check
    # a Reed-Solomon matrix with one row scaled, off the normal rational
    # curve, so that the MDS check searches
    f27 = field_of_order(27)
    rs_rows = [list(row) for row in rs_parity_check(f27, 15, 5).entries]
    rs_rows[1] = [f27.mul(2, x) for x in rs_rows[1]]
    rs_h = CodeMatrix.from_rows(f27, rs_rows)
    calls = dict.fromkeys(["add", "mul", "inv", "neg", "normal_form"], 0)
    for name in calls:
        method = getattr(FieldSpec, name)

        def counted(self, *args, _name=name, _method=method):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(FieldSpec, name, counted)

    def arithmetic():
        return calls["add"] + calls["mul"] + calls["inv"]

    assert check_theorem_conditions(d5_h, 3).ok
    assert arithmetic() <= 10, calls
    # conditions 1 and 2 search one shared normal form per column
    assert calls["normal_form"] <= d5_h.cols, calls
    calls.update(dict.fromkeys(calls, 0))
    assert check_theorem_conditions(d6_h, 4).ok
    assert arithmetic() <= 10, calls
    calls.update(dict.fromkeys(calls, 0))
    # the projection reads its differences from the field's log rows, with
    # no negation per pivot entry
    assert check_mds_conditions(rs_h).ok
    assert calls["neg"] <= 10, calls


def test_certificate_rejects_singleton_violation():
    with pytest.raises(ValueError):
        PairCertificate(q=5, n=10, d_pair=5, dim_exponent=6, route="column-conditions", ok=True)


def test_theorem_checker_agrees_with_bruteforce_when_feasible():
    # whenever the checker succeeds and enumeration is cheap, brute force
    # must say exactly d_H + 2
    from pairmds.d5 import build_h

    for q, n in [(2, 5), (2, 6), (2, 7), (3, 7), (3, 10), (4, 9), (5, 8)]:
        f = field_of_order(q)
        h = build_h(f, n)[0]
        cert = check_theorem_conditions(h, 3)
        assert cert.ok
        assert min_pair_distance_bruteforce(LinearCode(h)) == 5
