import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from pairmds.gf import field, field_of_order
from pairmds.linalg import CodeMatrix, LinearCode, rank_of_vectors
from pairmds.pairmetric import (
    COND_ANY_SMALL_INDEPENDENT,
    COND_CONSECUTIVE_INDEPENDENT,
    COND_DEPENDENT_SET_EXISTS,
    PairCertificate,
    _first_dependent_subset,
    check_mds_conditions,
    check_theorem_conditions,
    hamming_weight,
    min_pair_distance_bruteforce,
    pair_distance,
    pair_read,
    pair_weight,
    singleton_verdict,
)

from goldens import H2_FULL, H2_N5


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
    from pairmds.linalg import columns_independent

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
    ],
)
def test_first_dependent_subset_examples(cols, size, want):
    f = field(5, 1)
    assert first_dependent_subset_by_scan(f, cols, size) == want
    assert _first_dependent_subset(f, cols, size) == want


def test_singleton_verdict():
    assert singleton_verdict(5, 13, 10, 5)
    assert not singleton_verdict(5, 13, 9, 5)
    assert singleton_verdict(7, 9, 2, 9)
    with pytest.raises(ValueError):
        singleton_verdict(5, 13, 10, 1)


def test_certificate_rejects_singleton_violation():
    with pytest.raises(ValueError):
        PairCertificate(q=5, n=10, d_pair=5, dim_exponent=6, route="column-conditions", ok=True)


def test_theorem_checker_agrees_with_bruteforce_when_feasible():
    # whenever the checker succeeds and enumeration is cheap, brute force
    # must say exactly d_H + 2
    from pairmds.d5 import build_h

    for q, n in [(2, 5), (2, 6), (2, 7), (3, 7), (3, 10), (4, 9), (5, 8)]:
        f = field_of_order(q)
        h = build_h(f, n)
        cert = check_theorem_conditions(h, 3)
        assert cert.ok
        assert min_pair_distance_bruteforce(LinearCode(h)) == 5
