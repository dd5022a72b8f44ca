import itertools
import sys

import pytest

from pairmds.d5 import (
    InsertionScheme,
    XOrder,
    build_h,
    build_h_full,
    canonical_xorder,
    construct_d5,
    insertion_scheme_even,
    location_exclusions,
)
from pairmds.errors import ParameterError
from pairmds.gf import field, field_of_order
from pairmds.linalg import CodeMatrix, rank
from pairmds.pairmetric import check_theorem_conditions

from goldens import H2_FULL, H2_N5, H2_N6, H4_FULL, H5_FULL, H5_N13, H5_N14
from reference import (
    block_matrix,
    columns_independent,
    insertion_assignment_by_stack,
    insertion_assignment_recursive,
)


def as_rows(m: CodeMatrix):
    return [list(r) for r in m.entries]


def test_golden_matrices():
    f5 = field(5, 1)
    assert as_rows(build_h_full(f5)) == H5_FULL
    assert as_rows(build_h(f5, 13)[0]) == H5_N13
    assert as_rows(build_h(f5, 14)[0]) == H5_N14
    f2 = field(2, 1)
    assert as_rows(build_h_full(f2)) == H2_FULL
    assert as_rows(build_h(f2, 5)[0]) == H2_N5
    assert as_rows(build_h(f2, 6)[0]) == H2_N6
    assert as_rows(build_h_full(field(2, 2))) == H4_FULL


def test_block_matrix_examples():
    f5 = field(5, 1)
    x = canonical_xorder(f5)
    b4 = block_matrix(x, 4)
    assert b4.column(0) == (1, 4, 0)
    assert b4.cols == 5
    # H(5) columns 2..6 are exactly B_4
    h5 = build_h_full(f5)
    assert [h5.column(j) for j in range(1, 6)] == b4.columns()


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_block_consecutive_triples_independent(q):
    f = field_of_order(q)
    x = canonical_xorder(f)
    for i in range(q):
        b = block_matrix(x, i)
        for j in range(q - 2):
            assert columns_independent(b, [j, j + 1, j + 2])


def test_even_xorder_prefix():
    f8 = field(2, 3)
    x = canonical_xorder(f8)
    w = f8.primitive_element()
    w2 = f8.mul(w, w)
    assert x.order[:6] == (0, 1, w, w2, f8.add(w, 1), f8.add(w2, w))
    assert sorted(x.order) == list(range(8))


def test_insertion_graph_degrees_and_exclusions():
    f8 = field(2, 3)
    x = canonical_xorder(f8)
    for j in range(8):
        excl = set(location_exclusions(x, j))
        assert len(excl) == 2  # degree exactly q - 2
    w = f8.primitive_element()
    assert set(location_exclusions(x, 1)) == {1, f8.add(w, 1)}


@pytest.mark.parametrize("q", [8, 16, 32])
def test_insertion_scheme_is_valid_matching(q):
    f = field_of_order(q)
    x = canonical_xorder(f)
    scheme = insertion_scheme_even(x)
    assert sorted(scheme.assignment) == list(range(q))  # a perfect matching
    for j, y in enumerate(scheme.assignment):
        assert y not in set(location_exclusions(x, j))


@pytest.mark.parametrize("q", [8, 16, 32, 64, 128, 256])
def test_insertion_scheme_matches_the_recursive_matching(q):
    x = canonical_xorder(field_of_order(q))
    assert insertion_scheme_even(x).assignment == insertion_assignment_recursive(x)


@pytest.mark.parametrize("q", [8, 16, 32, 64, 128, 256, 512, 1024])
def test_insertion_scheme_matches_the_scanning_stack_matching(q):
    # the pointer array visits the values in the order of a scan from 0 in
    # every frame, and so does the reference's sorted list of unseen values;
    # at q = 1024 the reference takes about 0.35 s
    x = canonical_xorder(field_of_order(q))
    assert insertion_scheme_even(x).assignment == insertion_assignment_by_stack(x)


def test_insertion_scheme_needs_no_recursion_depth():
    # the recursive matching nests about q calls deep, and the interpreter's
    # limit of 1000 frames ended it from GF(1024) on
    x = canonical_xorder(field_of_order(256))
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        assignment = insertion_scheme_even(x).assignment
    finally:
        sys.setrecursionlimit(limit)
    assert assignment == insertion_assignment_recursive(x)


def test_insertion_scheme_rejects_odd_q():
    with pytest.raises(ParameterError):
        insertion_scheme_even(canonical_xorder(field(5, 1)))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_full_matrix_is_projective_plane(q):
    f = field_of_order(q)
    h = build_h_full(f)
    assert h.cols == q * q + q + 1
    cols = set(h.columns())
    expected = {(0, 0, 1)}
    expected.update((0, 1, c) for c in f.elements())
    expected.update((1, a, b) for a in f.elements() for b in f.elements())
    assert cols == expected  # one representative per point of PG(2, q)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13])
def test_full_matrix_cyclic_windows(q):
    f = field_of_order(q)
    h = build_h_full(f)
    n = h.cols
    for i in range(n):
        assert columns_independent(h, [(i + t) % n for t in range(3)])


def test_build_h_beta2_places_e3_third():
    f5 = field(5, 1)
    h = build_h(f5, 14)[0]  # 14 = 2*6 + 2
    assert h.column(2) == (0, 0, 1)
    f3 = field(3, 1)
    h3 = build_h(f3, 10)[0]  # 10 = 2*4 + 2
    assert h3.column(2) == (0, 0, 1)
    assert check_theorem_conditions(h3, 3).ok


def test_small_n_fallback_keeps_all_conditions():
    # plain truncation has no dependent triple here; the fallback inserts a
    # second (0, 1, y) column
    for q, n in [(5, 5), (7, 5), (7, 6), (8, 7), (9, 6)]:
        f = field_of_order(q)
        h = build_h(f, n)[0]
        cert = check_theorem_conditions(h, 3)
        assert cert.ok, (q, n)
        heads = [c[:2] for c in h.columns()]
        assert heads.count((0, 1)) == 2
        assert h.column(n - 1) == (0, 0, 1)


def test_build_h_range_errors():
    f3 = field(3, 1)
    with pytest.raises(ParameterError):
        build_h(f3, 4)
    with pytest.raises(ParameterError):
        build_h(f3, 14)  # q^2 + q + 1 = 13


def test_construct_d5_examples():
    f3 = field(3, 1)
    code, cert, prov = construct_d5(f3, 13)
    assert code.k == 10 and cert.ok and cert.d_pair == 5
    with pytest.raises(ParameterError):
        construct_d5(f3, 14)
    f2 = field(2, 1)
    code2, cert2, _ = construct_d5(f2, 7)
    assert as_rows(code2.parity_check) == H2_FULL
    assert cert2.ok


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_construct_d5_every_length(q):
    f = field_of_order(q)
    for n in range(5, q * q + q + 2):
        code, cert, _ = construct_d5(f, n)
        assert cert.ok and cert.d_pair == 5 and code.k == n - 3
        assert rank(code.parity_check) == 3
