import functools
import itertools
import math
import random
import re
import sys

import pytest
from hypothesis import event, given, settings, strategies as st

from pairmds import ecmds, gf
from pairmds.ecmds import (
    EllipticCurve,
    EvalArrangement,
    arrange,
    check_ec_conditions,
    construct_ec,
    ec_add,
    ec_neg,
    ec_point_count,
    ec_points,
    ec_verdict,
    find_maximal_curve,
    generator_matrix,
    n_max,
    residue_parity_check,
    subset_sum_count,
    window_check,
)
from pairmds.errors import ParameterError
from pairmds.gf import FieldError, FieldSpec, field, field_of_order
from pairmds.linalg import CodeMatrix, LinearCode, null_space, rank, rank_of_vectors
from pairmds.pairmetric import min_pair_distance_bruteforce

from reference import (
    columns_independent,
    curve_candidates,
    dot,
    ec_sum,
    first_maximal_curve,
    independent_points,
    local_rearrange_by_resumming,
    min_hamming_distance_bruteforce,
    orthogonal,
    step1_sequence_by_cursor,
    subset_sum_count_by_size,
    zero_window_starts,
)


def curve_5_3x():
    # y^2 = x^3 + 3x over GF(5): ten rational points
    return EllipticCurve(field(5, 1), 0, 0, 0, 3, 0)


def test_singular_curve_rejected():
    with pytest.raises(ParameterError):
        EllipticCurve(field(5, 1), 0, 0, 0, 0, 0)  # y^2 = x^3


def test_ec_points_count_example():
    pts = ec_points(curve_5_3x())
    assert len(pts) == 10
    assert pts[0] is None
    assert all(curve_5_3x().is_on_curve(p) for p in pts)
    # exhaustive independent count
    f = field(5, 1)
    brute = 1 + sum(
        1
        for x in f.elements()
        for y in f.elements()
        if f.mul(y, y) == f.add(f.mul(x, f.mul(x, x)), f.mul(3, x))
    )
    assert brute == 10


def test_group_law_identity_inverse_torsion():
    c = curve_5_3x()
    pts = ec_points(c)
    for p in pts:
        assert ec_add(c, p, None) == p
        assert ec_add(c, None, p) == p
        assert ec_add(c, p, ec_neg(c, p)) is None
    assert (0, 0) in pts
    assert ec_add(c, (0, 0), (0, 0)) is None  # y = 0 means 2-torsion


@pytest.mark.parametrize("q", [5, 7, 8, 11])
def test_group_law_associativity_exhaustive(q):
    f = field_of_order(q)
    c = find_maximal_curve(f)
    pts = ec_points(c)
    assert len(pts) <= 20
    for p, r, s in itertools.product(pts, repeat=3):
        assert ec_add(c, ec_add(c, p, r), s) == ec_add(c, p, ec_add(c, r, s))


def test_off_curve_point_rejected():
    c = curve_5_3x()
    bad = next(
        (x, y)
        for x in range(5)
        for y in range(5)
        if not c.is_on_curve((x, y))
    )
    with pytest.raises(ParameterError):
        ec_add(c, bad, (0, 0))


def test_hasse_weil_bound_all_short_curves_q7():
    f = field(7, 1)
    bound = 7 + math.isqrt(4 * 7) + 1
    for a4 in range(7):
        for a6 in range(7):
            try:
                c = EllipticCurve(f, 0, 0, 0, a4, a6)
            except ParameterError:
                continue
            assert ec_point_count(c) <= bound


def test_n_max_examples():
    assert n_max(field(5, 1)) == 10
    assert n_max(field(2, 7)) == 150  # q = 128: a odd, p divides floor(2*sqrt(q))
    assert n_max(field(2, 3)) == 14  # q = 8: 2 does not divide 5
    assert n_max(field(11, 1)) == 18
    assert n_max(field(13, 1)) == 21


@pytest.mark.parametrize(
    "q,count", [(5, 10), (7, 13), (8, 14), (9, 16), (11, 18), (13, 21), (32, 44)]
)
def test_find_maximal_curve(q, count):
    f = field_of_order(q)
    c = find_maximal_curve(f)
    assert ec_point_count(c) == count == n_max(f)
    assert c.discriminant() != 0


def test_ec_point_count_rejects_fields_beyond_the_curve_search():
    # in characteristic 2 the count builds q trace masks of q bits each
    c = EllipticCurve(field(2, 11), 1, 0, 0, 0, 1)
    with pytest.raises(ParameterError, match="q <= 1024"):
        ec_point_count(c)


def _curves(f, coeffs):
    for c in coeffs:
        try:
            yield EllipticCurve(f, *c)
        except ParameterError:
            continue


def test_no_supersingular_curve_over_gf8_is_maximal():
    # every a1 = 0 tuple over GF(8), the ones the candidate scan skips
    f = field_of_order(8)
    target = n_max(f)
    curves = list(_curves(f, itertools.product([0], *[f.elements()] * 4)))
    assert curves
    assert all(ec_point_count(c) < target for c in curves)


def test_curve_scan_over_gf8_finds_the_unfiltered_first_maximal_curve():
    f = field_of_order(8)
    target = n_max(f)
    first = next(
        c for c in _curves(f, itertools.product(f.elements(), repeat=5))
        if ec_point_count(c) == target
    )
    assert find_maximal_curve(f) == first
    # a1 leads the product order, so the scan starts past every a1 = 0 tuple
    assert next(curve_candidates(f)).a1 == 1


def _sampled_prefixes(f):
    """A few (a1, a2, a3, a4) of each kind the point counter handles."""
    rng = random.Random(f.q)
    some = functools.partial(rng.randrange, f.q)
    nonzero = functools.partial(rng.randrange, 1, f.q)
    if f.p == 2:
        # a1 != 0: one x has a1 x + a3 = 0; a1 = 0, a3 != 0: none has;
        # a1 = a3 = 0: singular for every a6
        prefixes = (
            [(nonzero(), some(), some(), some()) for _ in range(3)]
            + [(0, some(), nonzero(), some()) for _ in range(2)]
            + [(0, some(), 0, some())]
        )
    else:
        # general prefixes complete the square; a1 = a3 = 0 is the search's form
        prefixes = [(some(), some(), some(), some()) for _ in range(2)]
        prefixes += [(0, some(), 0, some()) for _ in range(2)]
        if f.p == 3:
            prefixes.append((0, 0, 0, 0))  # y^2 = x^3 + a6 is singular for every a6
    # the discriminant c2 a6^2 + c1 a6 + c0 has c2 = -432: for p >= 5 it has
    # none, one or two roots in a6, and for p = 2, 3 (c2 = 0) at most one
    counts = (0, 1, 2) if f.p >= 5 else (1,)
    return prefixes + [_first_prefix_with_singular_a6(f, s) for s in counts]


def _first_prefix_with_singular_a6(f, s):
    """The first (a1, a2, a3, a4), a1 varying fastest, for which exactly s
    of the a6 give a singular curve, each a6 tried by ``EllipticCurve``."""
    for a4, a3, a2, a1 in itertools.product(f.elements(), repeat=4):
        prefix = (a1, a2, a3, a4)
        nonsingular = _curves(f, (prefix + (a6,) for a6 in f.elements()))
        if f.q - sum(1 for _ in nonsingular) == s:
            return prefix
    raise AssertionError(f"no prefix over GF({f.q}) has {s} singular a6")  # pragma: no cover


@pytest.mark.parametrize("q", [5, 7, 8, 9, 16, 25, 27])
def test_point_counts_match_two_independent_counts(q):
    f = field_of_order(q)
    for prefix in _sampled_prefixes(f):
        counts = list(ecmds._point_counts(f, *prefix))
        nonsingular = _curves(f, (prefix + (a6,) for a6 in f.elements()))
        assert [a6 for a6, _ in counts] == [c.a6 for c in nonsingular]
        for a6, n in counts:
            c = EllipticCurve(f, *prefix, a6)
            pts = ec_points(c)
            assert pts == [None] + independent_points(f, c.coefficients()), c
            assert n == len(pts) == ec_point_count(c), c


@pytest.mark.parametrize(
    "q",
    [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43, 47, 49,
     53, 59, 61, 64],
)
def test_find_maximal_curve_matches_reference_scan(q):
    f = field_of_order(q)
    assert find_maximal_curve(f) == first_maximal_curve(f)


# first maximal curves at the larger fields, each found by the scan that
# counts every candidate's points one x at a time
@pytest.mark.parametrize(
    "q,coeffs",
    [
        (81, (0, 0, 0, 9, 0)),
        (125, (0, 0, 0, 1, 0)),
        (128, (1, 0, 1, 0, 13)),
        (169, (0, 0, 0, 1, 4)),
        (243, (0, 2, 0, 0, 1)),
        (256, (0, 0, 1, 0, 32)),
        (343, (0, 0, 0, 0, 21)),
        (512, (1, 0, 1, 0, 253)),
        (625, (0, 0, 0, 0, 5)),
        (729, (0, 0, 0, 1, 0)),
        (961, (0, 0, 0, 1, 0)),
        (1024, (0, 0, 1, 0, 0)),
    ],
)
def test_first_maximal_curve_pinned(q, coeffs):
    f = field_of_order(q)
    c = find_maximal_curve(f)
    assert c.coefficients() == coeffs
    assert len(ec_points(c)) == n_max(f)


@pytest.mark.parametrize(
    "q,coeffs", [(3, (0, 0, 0, 2, 1)), (9, (0, 0, 0, 1, 0)), (27, (0, 2, 0, 0, 2))]
)
def test_first_maximal_curve_characteristic_3(q, coeffs):
    # the odd-characteristic scan over a1 = a3 = 0 finds the curve that the
    # scan over all five coefficients finds first
    assert find_maximal_curve(field_of_order(q)).coefficients() == coeffs


def test_characteristic_3_shift_keeps_point_counts():
    # x -> x + a4/a2 maps (0, a2, 0, a4, a6) onto (0, a2, 0, 0, a6 + shift):
    # find_maximal_curve counts only a4 = 0 when a2 != 0 because of it
    f = field_of_order(27)
    for a2 in range(1, 27):
        base = dict(ecmds._point_counts(f, 0, a2, 0, 0))
        for a4 in range(1, 27):
            t = f.div(a4, a2)
            shift = f.add(f.add(f.pow(t, 3), f.mul(a2, f.mul(t, t))), f.mul(a4, t))
            got = dict(ecmds._point_counts(f, 0, a2, 0, a4))
            assert got == {f.sub(a6, shift): n for a6, n in base.items()}, (a2, a4)


@pytest.mark.parametrize("q", [27, 243])
def test_no_supersingular_curve_over_odd_degree_gf3_is_maximal(q):
    # every a2 = 0 curve in the search's form, the ones it skips
    f = field_of_order(q)
    counts = [n for a4 in f.elements() for _, n in ecmds._point_counts(f, 0, 0, 0, a4)]
    assert counts and max(counts) < n_max(f)


def staircase(k):
    """(i, j) of the monomials x^i y^j, j <= 1, of pole order 2i + 3j <= k at
    O, by ascending pole order: a basis of L(kO)."""
    fns = [(i, j) for j in (0, 1) for i in range(k // 2 + 1) if 2 * i + 3 * j <= k]
    return sorted(fns, key=lambda m: 2 * m[0] + 3 * m[1])


def monomial_rows(f, pts, k):
    return [tuple(f.mul(f.pow(x, i), f.pow(y, j)) for x, y in pts) for i, j in staircase(k)]


def test_rr_basis_examples():
    assert staircase(1) == [(0, 0)]
    assert staircase(5) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)]
    c = find_maximal_curve(field(11, 1))
    f = c.field
    pts = tuple(ec_points(c)[1:15])
    for k in range(1, 12):
        # pole orders 0, 2, 3, ..., k: k functions, none of order 1
        assert [2 * i + 3 * j for i, j in staircase(k)] == [0] + list(range(2, k + 1))
        assert list(generator_matrix(EvalArrangement(c, pts, k)).entries) == monomial_rows(f, pts, k)


@pytest.mark.parametrize("k", [2, 3, 5, 8])
def test_rr_basis_dimension_via_evaluation_rank(k):
    # Riemann-Roch dimension check: evaluating at more than k points the
    # basis functions stay independent
    f = field(13, 1)
    c = find_maximal_curve(f)
    pts = tuple(p for p in ec_points(c) if p is not None)[: k + 3]
    g = generator_matrix(EvalArrangement(c, pts, k))
    assert list(g.entries) == monomial_rows(f, pts, k)
    assert rank(g) == k


def _test_curve(q):
    f = field_of_order(q)
    if q == 3**6:
        # the maximal-curve scan is too long for a test: y^2 = x^3 + x + 1
        return EllipticCurve(f, 0, 0, 0, 1, 1)
    return find_maximal_curve(f)


# prime, 2^a, odd extension with the flat addition table, odd extension
# with the digit loop
@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from([7, 8, 9, 3**6]), data=st.data())
def test_generator_matrix_entries_are_monomial_values(q, data):
    c = _test_curve(q)
    f = c.field
    pts = ec_points(c)[1:]
    idx = data.draw(st.lists(st.integers(0, len(pts) - 1), min_size=2, max_size=14, unique=True))
    k = data.draw(st.integers(1, len(idx) - 1))
    a = EvalArrangement(c, tuple(pts[i] for i in idx), k)
    g = generator_matrix(a)
    assert g.rows == k and g.cols == a.n
    assert list(g.entries) == monomial_rows(f, a.points, k)


@settings(max_examples=120, deadline=None)
@given(q=st.sampled_from([7, 8, 9, 13, 16, 27]), closed=st.booleans(), data=st.data())
def test_generator_matrix_rank_and_first_columns_follow_riemann_roch(q, closed, data):
    # the lemma check_ec_conditions rests on in place of eliminating G: rank
    # G = k at any n > k distinct affine points, and G's first k columns are
    # independent iff P_1 + ... + P_k != O
    c = find_maximal_curve(field_of_order(q))
    f = c.field
    pts = ec_points(c)[1:]
    n = data.draw(st.integers(2, len(pts)))
    k = data.draw(st.integers(1, n - 1))
    chosen = [pts[i] for i in data.draw(st.permutations(range(len(pts))))[:n]]
    if closed:
        # P_k := -(P_1 + ... + P_(k-1)) where that is an affine point not
        # among them, so that the first k points sum to O
        closing = ec_neg(c, ec_sum(c, chosen[: k - 1]))
        if closing is not None and closing not in chosen[: k - 1]:
            tail = [p for p in chosen[k - 1:] if p != closing]
            chosen = (chosen[: k - 1] + [closing] + tail)[:n]
    a = EvalArrangement(c, tuple(chosen), k)
    g = generator_matrix(a)
    sums_to_o = ec_sum(c, a.points[:k]) is None
    event("first k sum to O" if sums_to_o else "first k sum to a point")
    assert rank_of_vectors(f, g.entries) == k
    assert columns_independent(g, range(k)) == (not sums_to_o)


def test_elliptic_certificate_makes_no_per_element_field_calls(monkeypatch):
    # h g^T reads g's columns packed once per curve by mul_rows and runs on
    # FieldSpec.vanishing, and the generator matrix is built by mul_rows;
    # what is left is forward elimination, one inv per pivot and one mul
    # per cleared row
    from pairmds.gf import FieldSpec

    f = field_of_order(27)
    n, k = 35, 35 - 5
    a = arrange(find_maximal_curve(f), n, k)
    g = generator_matrix(a)
    h = null_space(g)
    calls = {"add": 0, "mul": 0, "inv": 0, "pow": 0}
    for name in calls:
        method = getattr(FieldSpec, name)

        def counted(self, *args, _name=name, _method=method):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(FieldSpec, name, counted)
    cert = check_ec_conditions(a, h)
    assert cert.ok and cert.d_pair == 7
    assert sum(calls.values()) <= 2 * n, calls
    calls.update(add=0, mul=0, inv=0, pow=0)
    assert generator_matrix(a) == g
    assert calls["pow"] == 0 and calls["mul"] < 2000, calls


def test_generator_matrix_rows():
    c = find_maximal_curve(field(11, 1))
    pts = tuple(p for p in ec_points(c) if p is not None)[:9]
    g = generator_matrix(EvalArrangement(c, pts, 4))
    assert g.entries[0] == (1,) * 9  # the constant function
    assert rank(g) == 4
    rep = generator_matrix(EvalArrangement(c, pts, 1))
    assert rep.entries == ((1,) * 9,)  # k = 1 is the repetition code


def test_paired_points_structure():
    for q in (11, 13):
        c = find_maximal_curve(field_of_order(q))
        pts = ec_points(c)
        flat, torsion = ecmds._paired_points(c)
        for i in range(0, len(flat), 2):
            assert ec_add(c, pts[flat[i]], pts[flat[i + 1]]) is None
        for t in torsion:
            assert ec_add(c, pts[t], pts[t]) is None
        assert sorted(flat + torsion) == list(range(1, ec_point_count(c)))
    # q = 11 is maximal with an even group order: exactly one 2-torsion point
    _, torsion11 = ecmds._paired_points(find_maximal_curve(field(11, 1)))
    assert len(torsion11) == 1


def test_step1_tail_layout_n19_k6():
    # on a 19-point curve with k = 6: N-3 = 16 = (k+1)*2 + 2
    f = field(13, 1)
    curve = next(c for c in curve_candidates(f) if ec_point_count(c) == 19)
    flat, torsion = ecmds._paired_points(curve)
    assert not torsion and len(flat) == 18
    P = {i + 1: flat[i] for i in range(18)}
    seq = ecmds._step1_sequence(flat[:14], [flat[14], flat[16]], 6)
    assert seq == [P[i] for i in (1, 2, 3, 4, 5, 14, 6, 7, 8, 9, 10, 11, 15, 12, 13, 17)]


def _step1_shapes():
    """Every (run length, specials, k) with one or two specials, a run of
    0 to 199 points and 1 <= k <= 39 at n >= k + 1."""
    for length in range(200):
        for specials in (1, 2):
            for k in range(1, min(39, length + specials - 1) + 1):
                yield length, specials, k


def test_step1_slices_are_the_cursor_threading():
    shapes = 0
    for length, specials, k in _step1_shapes():
        run, sp = list(range(length)), [-1, -2][:specials]
        assert ecmds._step1_sequence(run, sp, k) == step1_sequence_by_cursor(run, sp, k), (
            length, specials, k
        )
        shapes += 1
    assert shapes == 14_079


def test_adjacent_windows_cannot_both_vanish():
    # dropping one point and appending a different one changes the sum
    c = find_maximal_curve(field(13, 1))
    arrangementu = arrange(c, 16, 6)
    pts = list(arrangementu.points)
    n, k = 16, 6
    for i in range(n):
        w1 = ec_sum(c, [pts[(i + t) % n] for t in range(k)])
        w2 = ec_sum(c, [pts[(i + 1 + t) % n] for t in range(k)])
        assert not (w1 is None and w2 is None)


def test_window_check_paired_list_odd_k():
    c = find_maximal_curve(field(13, 1))
    pts = ec_points(c)
    flat = [pts[i] for i in ecmds._paired_points(c)[0]]
    for n, k in [(18, 5), (16, 7), (14, 3)]:
        a = EvalArrangement(c, tuple(flat[len(flat) - n :]), k)
        assert window_check(a)


def test_window_check_false_for_unrepaired_even_k():
    c = find_maximal_curve(field(13, 1))
    pts = ec_points(c)
    a = EvalArrangement(c, tuple(pts[i] for i in ecmds._paired_points(c)[0][:12]), 4)
    assert not window_check(a)  # the first four points pair off to O


def test_eval_arrangement_invariants():
    c = find_maximal_curve(field(11, 1))
    pts = tuple(p for p in ec_points(c) if p is not None)[:8]
    with pytest.raises(ParameterError):
        EvalArrangement(c, pts, 8)  # k = n
    with pytest.raises(ParameterError):
        EvalArrangement(c, pts + (pts[0],), 3)  # duplicate
    with pytest.raises(ParameterError):
        EvalArrangement(c, pts, 0)  # k must be positive


@pytest.mark.parametrize("q", [7, 8, 9])
def test_eval_arrangement_checks_points_by_the_point_index(q, monkeypatch):
    def unused(self, pt):
        raise AssertionError("is_on_curve called")

    monkeypatch.setattr(EllipticCurve, "is_on_curve", unused)
    c = find_maximal_curve(field_of_order(q))
    pts = ec_points(c)
    assert EvalArrangement(c, tuple(pts[1:]), 2).n == len(pts) - 1
    with pytest.raises(ParameterError, match="^O cannot be an evaluation point$"):
        EvalArrangement(c, (pts[1], None), 1)
    off = [p for p in itertools.product(range(q), repeat=2) if p not in pts]
    assert len(off) == q * q - (len(pts) - 1)
    for p in off:
        with pytest.raises(ParameterError, match=f"^{re.escape(str(p))} is not on the curve$"):
            EvalArrangement(c, (pts[1], p), 1)


def test_eval_arrangement_above_the_curve_bound_is_rejected():
    # y^2 + xy = x^3 + 1 over GF(2^11): beyond the fields of the point index
    c = EllipticCurve(field_of_order(2048), 1, 0, 0, 0, 1)
    with pytest.raises(ParameterError, match="1024"):
        EvalArrangement(c, tuple(ec_points(c)[1:13]), 5)


def test_subset_sum_count_properties():
    c = find_maximal_curve(field(11, 1))
    arrangement = arrange(c, 13, 6)
    n1 = subset_sum_count(arrangement)
    assert n1 > 0  # length above q+1 forces solutions
    reordered = EvalArrangement(c, tuple(reversed(arrangement.points)), 6)
    assert subset_sum_count(reordered) == n1
    # nearly-full subsets: k = n - 1 leaves one point out, so the count is
    # the number of points equal to the total sum
    pts = arrangement.points[:6]
    total = ec_sum(c, pts)
    expect = sum(1 for p in pts if p == total)
    assert subset_sum_count(EvalArrangement(c, pts, 5)) == expect


def brute_subset_count(c, pts, k):
    cnt = 0
    for s in itertools.combinations(pts, k):
        if ec_sum(c, s) is None:
            cnt += 1
    return cnt


def test_subset_sum_count_matches_bruteforce():
    c = find_maximal_curve(field(11, 1))
    for n, k in [(10, 4), (12, 5), (9, 3)]:
        pts = tuple(p for p in ec_points(c) if p is not None)[:n]
        arrangement = EvalArrangement(c, pts, k)
        assert subset_sum_count(arrangement) == brute_subset_count(c, pts, k)


@pytest.mark.parametrize("q", [13, 16])
def test_packed_subset_sum_count_matches_the_per_size_count_on_the_workload(q):
    # every elliptic (n, d_pair) point of the benchmark's elliptic workload
    f = field_of_order(q)
    c = find_maximal_curve(f)
    for n in range(q + 2, n_max(f) - 2):
        for d_pair in range(7, n + 1):
            a = arrange(c, n, n - d_pair + 2)
            assert subset_sum_count(a) == subset_sum_count_by_size(a), (n, d_pair)


@pytest.mark.parametrize("which", ["2", "n//2", "n-2"])
def test_packed_subset_sum_count_beyond_64_bit_counts(which):
    # at q = 128, n = N(q) - 3 = 147, the counts of the middle sizes pass
    # 2^64, so every slot of the packed count is wider than a machine word
    f = field_of_order(128)
    c = find_maximal_curve(f)
    n = n_max(f) - 3
    k = {"2": 2, "n//2": n // 2, "n-2": n - 2}[which]
    a = EvalArrangement(c, tuple(ec_points(c)[1:n + 1]), k)
    count = subset_sum_count(a)
    assert count == subset_sum_count_by_size(a)
    if which == "n//2":
        assert count > 2**64


def test_minimum_distance_equivalence_both_branches():
    # Hamming distance is n-k exactly when some k-subset sums to O
    f = field(7, 1)
    c = find_maximal_curve(f)
    pts = [p for p in ec_points(c) if p is not None]
    zero_case = None
    pos_case = None
    for subset in itertools.combinations(pts, 6):
        for k in (2, 3):
            a = EvalArrangement(c, subset, k)
            cnt = subset_sum_count(a)
            if cnt == 0 and zero_case is None:
                zero_case = (a, cnt)
            if cnt > 0 and pos_case is None:
                pos_case = (a, cnt)
        if zero_case and pos_case:
            break
    assert zero_case and pos_case
    for a, cnt in (zero_case, pos_case):
        code = LinearCode(null_space(generator_matrix(a)))
        dh = min_hamming_distance_bruteforce(code)
        assert dh == (a.n - a.k + 1 if cnt == 0 else a.n - a.k)


def test_weight_support_correspondence():
    # zero sets of minimum-weight codewords are exactly k-subsets summing to O
    f = field(7, 1)
    c = find_maximal_curve(f)
    pts = tuple(p for p in ec_points(c) if p is not None)[:8]
    k = 3
    a = EvalArrangement(c, pts, k)
    if subset_sum_count(a) == 0:
        pytest.skip("no solution on this instance")
    code = LinearCode(null_space(generator_matrix(a)))
    from pairmds.linalg import enumerate_codewords

    for cw in enumerate_codewords(code):
        w = sum(1 for x in cw if x)
        if w == a.n - k:
            zeros = [pts[i] for i, x in enumerate(cw) if x == 0]
            assert len(zeros) == k
            assert ec_sum(c, zeros) is None


@pytest.mark.parametrize("q,n,d", [(11, 15, 10), (11, 12, 6), (13, 18, 5), (11, 15, 13)])
def test_construct_ec_examples(q, n, d):
    f = field_of_order(q)
    code, cert, prov = construct_ec(f, n, d)
    assert cert.ok and cert.route == "ec-algebraic"
    assert cert.d_pair == d + 2 and code.k == n - d
    assert cert.checks["window_check"] is True
    if n > q + 1:
        assert cert.checks["subset_sum_count"] > 0
    assert rank(code.parity_check) == n - code.k


def test_construct_ec_bruteforce_pair_distance():
    f = field(11, 1)
    code, cert, _ = construct_ec(f, 15, 10)  # k = 5
    assert min_pair_distance_bruteforce(code) == 12


def test_construct_ec_range_errors():
    f = field(11, 1)
    with pytest.raises(ParameterError):
        construct_ec(f, 16, 5)  # n above N(q) - 3
    with pytest.raises(ParameterError):
        construct_ec(f, 10, 4)  # pair distance 6 belongs elsewhere
    with pytest.raises(ParameterError):
        construct_ec(f, 6, 5)  # d + 2 > n


def test_float_curve_coefficient_rejected():
    with pytest.raises(FieldError):
        EllipticCurve(field_of_order(11), 0.0, 0, 0, 1, 3)


@pytest.mark.parametrize("q", [13, 16])
def test_group_table_matches_group_law(q):
    # the table names each point by its index in the curve's one point list
    c = find_maximal_curve(field_of_order(q))
    g = ecmds._group(c)
    index = ecmds._point_index(c)
    pts = ec_points(c)
    assert list(index.items()) == list(zip(pts, range(len(pts))))
    assert g.neg == [index[ec_neg(c, p)] for p in pts]
    assert g.add == [[index[ec_add(c, p, r)] for r in pts] for p in pts]


@pytest.mark.parametrize("q", [13, 16])
def test_subset_sum_count_builds_the_group_table_once(q, monkeypatch):
    c = find_maximal_curve(field_of_order(q))
    pts = ec_points(c)
    arrangement = EvalArrangement(c, tuple(pts[1:q + 3]), 5)
    calls = [0]
    chord_tangent = ecmds._chord_tangent

    def counted(*args):
        calls[0] += 1
        return chord_tangent(*args)

    monkeypatch.setattr(ecmds, "_chord_tangent", counted)
    ecmds._group.cache_clear()
    first = subset_sum_count(arrangement)
    assert calls[0] == len(pts) ** 2
    assert subset_sum_count(arrangement) == first
    assert calls[0] == len(pts) ** 2


@st.composite
def _window_case(draw):
    q = draw(st.sampled_from([13, 16, 25, 27]))
    c = find_maximal_curve(field_of_order(q))
    every = ec_points(c)
    if draw(st.booleans()):
        flat, torsion = ecmds._paired_points(c)
        pts = [every[i] for i in flat + torsion]
        pts = pts[: draw(st.integers(2, len(pts)))]
    else:
        pool = every[1:]
        pts = draw(st.permutations(pool))[: draw(st.integers(2, len(pool)))]
    k = draw(st.integers(1, len(pts) - 1))
    return c, list(pts), k


@settings(max_examples=150, deadline=None)
@given(case=_window_case())
def test_sliding_window_violations_match_definition(case):
    c, pts, k = case
    n = len(pts)
    index = ecmds._point_index(c)
    sums = [ec_sum(c, [pts[(i + t) % n] for t in range(k)]) for i in range(n)]
    assert ecmds._window_sums(ecmds._group(c), [index[p] for p in pts], k) == [
        index[s] for s in sums
    ]
    assert window_check(EvalArrangement(c, tuple(pts), k)) == (None not in sums)


@settings(max_examples=100, deadline=None)
@given(case=_window_case(), data=st.data())
def test_swaps_keep_the_window_sums_current(case, data):
    # after any run of swaps the maintained sums are the sums of the
    # sequence as it stands, and a swap done twice restores both lists
    c, pts, k = case
    n = len(pts)
    g, index = ecmds._group(c), ecmds._point_index(c)
    idx = [index[p] for p in pts]
    sums = ecmds._window_sums(g, idx, k)
    for i in data.draw(st.lists(st.integers(0, n - 1), max_size=12)):
        before = (list(idx), list(sums))
        ecmds._swap(g, idx, sums, i, k)
        want = list(before[0])
        want[i], want[(i + 1) % n] = want[(i + 1) % n], want[i]
        assert idx == want
        assert sums == ecmds._window_sums(g, idx, k)
        ecmds._swap(g, idx, sums, i, k)
        assert (idx, sums) == before
        ecmds._swap(g, idx, sums, i, k)


@pytest.mark.parametrize("q", [5, 7, 8, 9, 11, 13])
def test_local_rearrange_is_the_resumming_descent(q):
    # random shuffles, unlike arrange's paired layouts, can leave the descent
    # no clearing transposition and several that leave fewer windows summing
    # to O (11 of these 300), so its tie rule, the first of those, decides
    c = find_maximal_curve(field_of_order(q))
    g, pts = ecmds._group(c), ec_points(c)
    index = ecmds._point_index(c)
    rng = random.Random(q)
    for _ in range(50):
        seq = rng.sample(pts[1:], rng.randint(3, len(pts) - 1))
        k = rng.randint(1, len(seq) - 1)
        idx = [index[p] for p in seq]
        assert ecmds._local_rearrange(g, idx, k) == local_rearrange_by_resumming(c, seq, k)
        assert [pts[i] for i in idx] == seq, (len(seq), k)


@functools.lru_cache(maxsize=None)
def _first_curve_with_two_torsion(q, t):
    """The first candidate curve over GF(q) with t two-torsion points, the
    points P = -P other than O.

    In characteristic 2, -(x, y) = (x, y + a1 x + a3), so P = -P needs
    a1 x + a3 = 0, which no nonsingular curve with a1 = 0 meets (a1 = a3 = 0
    is singular there): a class with t > 0 is searched from a1 = 1.
    """
    f = field_of_order(q)
    a1_min = 1 if f.p == 2 and t else 0
    for c in curve_candidates(f, a1_min):
        if sum(ec_neg(c, p) == p for p in ec_points(c)[1:]) == t:
            return c
    raise AssertionError(f"GF({q}) lacks a curve class")  # pragma: no cover


def test_first_binary_curves_of_each_two_torsion_class():
    assert _first_curve_with_two_torsion(16, 0).coefficients() == (0, 0, 1, 0, 0)
    assert _first_curve_with_two_torsion(16, 1).coefficients() == (1, 0, 0, 0, 1)


# characteristic 2 has no curve with three 2-torsion points
@pytest.mark.parametrize(
    "q,t", [(q, t) for q in (11, 13, 25, 27) for t in (0, 1, 3)] + [(16, 0), (16, 1)]
)
def test_arrange_at_the_longest_lengths_for_each_two_torsion_class(q, t):
    c = _first_curve_with_two_torsion(q, t)
    flat, torsion = ecmds._paired_points(c)
    assert len(flat) % 2 == 0
    assert len(torsion) == t
    N = len(flat) + len(torsion) + 1
    for n in (N - 3, N - 4):
        for k in range(1, n - 4):
            assert window_check(arrange(c, n, k)), (n, k)


@pytest.mark.parametrize("q", [13, 16, 25, 27])
def test_pair_tiled_order_violates_every_even_window_start(q):
    c = find_maximal_curve(field_of_order(q))
    pts = ec_points(c)
    flat = [pts[i] for i in ecmds._paired_points(c)[0]]
    assert zero_window_starts(c, flat, 2) == list(range(0, len(flat), 2))
    assert zero_window_starts(c, flat, 4) == list(range(0, len(flat), 2))


def _ec_verdict_by_full_rank(a, g, h):
    """(ok, failed_condition) of check_ec_conditions as it stood before the
    rank of h moved to a block of its columns: the same window check and
    products, and one elimination of the whole of h."""
    f = a.curve.field
    n, k = a.n, a.k
    product_zero = h.cols == n and all(
        dot(f, hrow, grow) == 0 for hrow in h.entries for grow in g.entries
    )
    if not window_check(a):
        return False, "window-check"
    if not product_zero:
        return False, "parity-generator-product"
    if not h.rows == rank_of_vectors(f, h.entries) == n - k:
        return False, "parity-rank"
    return True, None


@functools.lru_cache(maxsize=None)
def _emitted_ec(q, n, d):
    f = field_of_order(q)
    a = arrange(find_maximal_curve(f), n, n - d)
    return a, [list(row) for row in null_space(generator_matrix(a)).entries]


_H_MUTATIONS = ("none", "duplicate-row", "zero-row", "change-entry", "drop-row",
                "extra-row", "drop-column", "extra-column")


@settings(max_examples=120, deadline=None)
@given(
    q=st.sampled_from([13, 16, 25, 27]),
    data=st.data(),
    mix=st.booleans(),
    mutation=st.sampled_from(_H_MUTATIONS),
    seed=st.integers(0, 2**32 - 1),
)
def test_parity_rank_proof_matches_full_rank_reference(q, data, mix, mutation, seed):
    f = field_of_order(q)
    n = data.draw(st.integers(q + 2, n_max(f) - 3))
    d = data.draw(st.integers(5, n - 1))
    a, h = _emitted_ec(q, n, d)
    r = len(h)
    rng = random.Random(seed)
    rows = [list(row) for row in h]
    if mix:
        # an invertible row mix, so that the block on the last n - k
        # columns is no longer the identity
        while True:
            m = [[rng.randrange(q) for _ in range(r)] for _ in range(r)]
            if rank_of_vectors(f, m) == r:
                break
        rows = []
        for coeffs in m:
            acc = [0] * n
            for c, row in zip(coeffs, h):
                acc = f.add_rows(acc, f.mul_rows(itertools.repeat(c), row))
            rows.append(acc)
    i, j = rng.sample(range(r), 2)
    if mutation == "duplicate-row":
        rows[j] = list(rows[i])
    elif mutation == "zero-row":
        rows[i] = [0] * n
    elif mutation == "change-entry":
        c = rng.randrange(n)
        rows[i][c] = (rows[i][c] + rng.randrange(1, q)) % q
    elif mutation == "drop-row":
        del rows[i]
    elif mutation == "extra-row":
        rows.append([rng.randrange(q) for _ in range(n)])
    elif mutation == "drop-column":
        c = rng.randrange(n)
        rows = [row[:c] + row[c + 1:] for row in rows]
    elif mutation == "extra-column":
        rows = [row + [rng.randrange(q)] for row in rows]
    if a.k == 1:
        # the constant words weigh n < n - k + 2: no claim to decide
        for check in (check_ec_conditions, ec_verdict):
            with pytest.raises(ParameterError, match="needs k >= 2"):
                check(a, CodeMatrix.from_rows(f, rows))
        event(f"{mutation}: k = 1 refused")
        return
    want = _ec_verdict_by_full_rank(a, generator_matrix(a), CodeMatrix.from_rows(f, rows))
    mutated = CodeMatrix.from_rows(f, rows)
    cert = check_ec_conditions(a, mutated)
    assert (cert.ok, cert.failed_condition) == want
    # the verdict that verify runs decides the same
    verdict = ec_verdict(a, CodeMatrix.from_rows(f, rows))
    assert (verdict.ok, verdict.failed_condition) == want
    event(f"{mutation}: {cert.failed_condition or 'ok'}")
    if mutation == "none":
        assert cert.ok
    if cert.ok:
        # the columns the certificate recorded really are a basis
        assert len(mutated.column_basis) == mutated.rows
        assert columns_independent(mutated, mutated.column_basis)


def _decoded_column(f, packed, k, stride):
    """The k field elements that one packed column holds: a slot of
    `stride` bytes per vector, little-endian with the first vector in the
    lowest bits, in a binary field one code and elsewhere the a base-p
    digits of the code, each slot read mod p (an element table's slot is a
    sum of digit products)."""
    raw = packed.to_bytes(k * stride, "little")
    width = stride if f.p == 2 else stride // f.a
    slots = [int.from_bytes(raw[i:i + width], "little") for i in range(0, len(raw), width)]
    if f.p == 2:
        return slots
    digits = [slots[i:i + f.a] for i in range(0, len(slots), f.a)]
    return [sum(d % f.p * f.p**j for j, d in enumerate(ds)) for ds in digits]


@pytest.mark.parametrize(
    "q",
    [7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43, 47, 49, 53, 59, 61, 64]
    + [128, 243],
)
def test_packed_staircase_columns_are_the_staircase_at_every_k(q):
    c = find_maximal_curve(field_of_order(q))
    f = c.field
    pts = tuple(ec_points(c)[1:])  # every affine point, in point-index order
    n = len(pts)
    big = n - 1
    staircase = ecmds._PackedStaircase(c)
    staircase.vanishing(EvalArrangement(c, pts, big), [])
    stride = staircase.stride
    rows = ecmds._staircase_rows(f, pts, big)
    columns = [[row[t] for row in rows] for t in range(n)]
    if q <= gf.ELEMENT_TABLE_MAX_ORDER:
        # the element table of point t holds c g(P_t) for every element c
        assert not staircase.tables and len(staircase.elements) == n + 1
        for t, table in enumerate(staircase.elements[1:]):
            assert len(table) == q
            for x, packed in enumerate(table):
                want = f.mul_rows(itertools.repeat(x), columns[t])
                assert _decoded_column(f, packed, big, stride) == want, (t, x)
    else:
        # digit table b holds e_b g, e_b the element of code p^b
        assert not staircase.elements and len(staircase.tables) == f.a
        for b, table in enumerate(staircase.tables):
            assert len(table) == n + 1
            for t, packed in enumerate(table[1:]):
                want = f.mul_rows(itertools.repeat(f.p**b), columns[t])
                assert _decoded_column(f, packed, big, stride) == want, (b, t)
    for k in (1, 2, 3, 4, big // 2, big - 1):
        assert ecmds._staircase_rows(f, pts, k) == rows[:k]
    # every smaller k reads the first k slots of each column, with no
    # repacking: u0 is orthogonal to every row of g at big, so to its first
    # k rows; one entry of it changed, and a random row, are not in general
    rng = random.Random(q)
    (u0,) = null_space(CodeMatrix.from_rows(f, rows)).entries
    changed = list(u0)
    j = rng.randrange(n)
    changed[j] = f.add(changed[j], rng.randrange(1, q))
    us = [u0, changed, [rng.randrange(q) for _ in range(n)]]
    zero = [[dot(f, u, v) == 0 for v in rows] for u in us]
    assert zero[0] == [True] * big
    tables, elements = staircase.tables, staircase.elements
    for k in range(1, big):
        got = list(staircase.vanishing(EvalArrangement(c, pts, k), us))
        assert got == [z[:k] for z in zero], k
    assert staircase.k == big and staircase.stride == stride
    assert staircase.tables is tables and staircase.elements is elements
    # gathered in an arrangement's order, by point index
    order = rng.sample(range(n), n)
    mixed = EvalArrangement(c, tuple(pts[i] for i in order), 5)
    us = [[u[i] for i in order] for u in us]
    vs = [[v[i] for i in order] for v in rows[:5]]
    got = list(staircase.vanishing(mixed, us))
    assert got == [[dot(f, u, v) == 0 for v in vs] for u in us]
    assert got[0] == [True] * 5


@pytest.mark.parametrize("q,elements", [(64, True), (81, False), (128, False), (243, False)])
def test_element_tables_only_in_fields_up_to_their_order(q, elements, monkeypatch):
    # GF(64) has the largest element tables; above it a curve keeps its
    # digit tables, since element tables take q / a times their memory
    # (about 190 MB at GF(243))
    built = []
    element_columns = FieldSpec.element_columns

    def counted(self, tables):
        built.append(self.q)
        return element_columns(self, tables)

    monkeypatch.setattr(FieldSpec, "element_columns", counted)
    c = find_maximal_curve(field_of_order(q))
    ecmds._packed_staircase.cache_clear()
    n = n_max(c.field) - 3
    for k in (5, n - 5):
        a = arrange(c, n, k)
        assert ec_verdict(a, null_space(generator_matrix(a))).ok
    staircase = ecmds._packed_staircase(c)
    assert (q <= gf.ELEMENT_TABLE_MAX_ORDER) == elements
    if elements:
        assert built == [q, q] and staircase.elements and not staircase.tables
    else:
        assert built == [] and not staircase.elements and staircase.tables
    ecmds._packed_staircase.cache_clear()


# prime, binary and odd-extension fields, all but GF(81) on the element
# tables: 3,395 cases in all
_PRODUCT_FIELDS = [7, 8, 9, 11, 13, 16, 19, 25, 27, 31, 32, 49, 64, 81]


@pytest.mark.parametrize("q", _PRODUCT_FIELDS)
def test_verdict_product_decision_is_the_orthogonal_kernel_on_the_staircase(q):
    # h g^T = 0 as the verdict reads it from the curve's packed tables, and
    # as the digit kernel decides it on the staircase rows packed afresh at
    # n points, for h as built and with one entry changed: a cross-check of
    # the element tables against the digit kernel up to GF(64), and of the
    # curve's digit tables at GF(81).  Every (n, k) at q <= 16, and four k
    # per n above; k rises and falls, so the cache both repacks and reads
    # fewer slots
    c = find_maximal_curve(field_of_order(q))
    f = c.field
    rng = random.Random(q)
    cases = 0
    for n in range(q + 2, n_max(f) - 2):
        ks = range(1, n - 4) if q <= 16 else {1, 2, (n - 5) // 2, n - 5}
        for k in sorted(ks, key=lambda k: rng.random()):
            a = arrange(c, n, k)
            h = [list(row) for row in null_space(generator_matrix(a)).entries]
            variants = [h]
            for _ in range(6):
                changed = [list(row) for row in h]
                i, j = rng.randrange(len(h)), rng.randrange(n)
                changed[i][j] = f.add(changed[i][j], rng.randrange(1, q))
                variants.append(changed)
            for rows in variants:
                want = all(map(all, orthogonal(f, rows, ecmds._staircase_rows(f, a.points, k))))
                h = CodeMatrix.from_rows(f, rows)
                cases += 1
                if k == 1:
                    # the constant words weigh n < n - k + 2: no claim to decide
                    with pytest.raises(ParameterError, match="needs k >= 2"):
                        ec_verdict(a, h)
                    continue
                verdict = ec_verdict(a, h)
                assert (verdict.failed_condition != "parity-generator-product") == want, (n, k)
                assert verdict.ok == want
    assert cases >= 42


@pytest.mark.parametrize("q", [5, 7, 8, 9])
def test_every_passing_verdict_is_the_brute_force_pair_distance(q):
    # the verdict on three shuffles of the affine points cut to each n, at
    # k <= 3, with h the null space of g: each passing verdict at k >= 2 is
    # the pair distance by enumeration, and each other one fails the window
    # check; at k = 1 the constant words weigh n < n - k + 2, and the
    # verdict refuses the claim
    c = find_maximal_curve(field_of_order(q))
    rng = random.Random(q)
    affine = ec_points(c)[1:]
    passed = 0
    for k in (1, 2, 3):
        for n in range(k + 2, len(affine) + 1):
            for _ in range(3):
                a = EvalArrangement(c, tuple(rng.sample(affine, n)), k)
                h = null_space(generator_matrix(a))
                pair_distance = min_pair_distance_bruteforce(LinearCode(h))
                if k == 1:
                    assert pair_distance == n
                    with pytest.raises(ParameterError, match="needs k >= 2"):
                        ec_verdict(a, h)
                    continue
                verdict = ec_verdict(a, h)
                assert verdict.failed_condition in (None, "window-check")
                if verdict.ok:
                    passed += 1
                    assert pair_distance == n - k + 2, (n, k, a.points)
    assert passed >= 15


@pytest.mark.parametrize("q", [13, 16, 25, 243])
def test_packing_and_verdict_ignore_the_host_byte_order(q, monkeypatch):
    # the packed ints and the slots read back from them are little-endian
    # whatever the host's order; a kernel that follows sys.byteorder on one
    # side and the native order on the other rejects valid codes
    c = find_maximal_curve(field_of_order(q))
    f = c.field
    n = n_max(f) - 3
    cases = []
    for k in (2, 5, n - 5):
        a = arrange(c, n, k)
        cases.append((a, null_space(generator_matrix(a)), ecmds._staircase_rows(f, a.points, k)))

    def clear_caches():
        gf._digit_bytes.cache_clear()
        gf._digit_rows.cache_clear()
        ecmds._packed_staircase.cache_clear()

    def packed_and_verdicts():
        clear_caches()
        return [(f.pack_columns(rows), ec_verdict(a, h)) for a, h, rows in cases]

    native = packed_and_verdicts()
    assert all(cert.ok for _, cert in native)
    with monkeypatch.context() as m:
        m.setattr(sys, "byteorder", "big" if sys.byteorder == "little" else "little")
        assert packed_and_verdicts() == native
    # no table built under the other order outlives the test
    clear_caches()


def test_packed_staircase_is_built_once_per_curve_and_k(monkeypatch):
    f = field_of_order(13)
    c = find_maximal_curve(f)
    packs = []
    pack_columns = FieldSpec.pack_columns

    def counted(self, vectors):
        packs.append(len(vectors))
        return pack_columns(self, vectors)

    monkeypatch.setattr(FieldSpec, "pack_columns", counted)
    ecmds._packed_staircase.cache_clear()
    n = n_max(f) - 3
    for k in (5, 3, 5, 8, 8, 2, 8):
        a = arrange(c, n, k)
        assert ec_verdict(a, null_space(generator_matrix(a))).ok
    # packed at k = 5 and again at k = 8; the smaller k after each read it
    assert packs == [5, 8]
    _, cert, _ = construct_ec(f, n, n - 8)
    assert cert.ok and packs == [5, 8]
    ecmds._packed_staircase.cache_clear()


def _holds_two_torsion(a):
    neg = ecmds._group(a.curve).neg
    return any(neg[i] == i for i in a.indices)


@pytest.mark.parametrize("q,torsion", [(7, 0), (8, 7), (9, 15), (11, 20), (13, 0), (16, 0)])
def test_residue_parity_check_is_the_null_space_of_g_at_every_arrangement(q, torsion):
    # every elliptic arrangement at q <= 16, on both sides of construct's
    # 5k > 3n rule; `torsion` of them put a 2-torsion point in D
    c = find_maximal_curve(field_of_order(q))
    held = 0
    for n in range(q + 2, n_max(c.field) - 2):
        for k in range(2, n - 4):
            a = arrange(c, n, k)
            held += _holds_two_torsion(a)
            assert residue_parity_check(a) == null_space(generator_matrix(a)), (n, k)
    assert held == torsion


@pytest.mark.parametrize("q", [25, 27, 32])
def test_residue_parity_check_with_a_two_torsion_point(q):
    # sampled (n, k) whose arrangement puts a 2-torsion point in D, where
    # the residue reads only the rows x^i y and a constraint column makes
    # the residue functions vanish at the point
    c = find_maximal_curve(field_of_order(q))
    rng = random.Random(q)
    pairs = [(n, k) for n in range(q + 2, n_max(c.field) - 2) for k in range(2, n - 4)]
    cases = 0
    for n, k in rng.sample(pairs, len(pairs)):
        a = arrange(c, n, k)
        if _holds_two_torsion(a):
            assert residue_parity_check(a) == null_space(generator_matrix(a)), (n, k)
            cases += 1
            if cases == 10:
                break
    assert cases == 10


@pytest.mark.parametrize("q", [64, 81, 128])
def test_residue_parity_check_at_high_rate(q):
    # k >= n - 10, where construct takes the residue route
    c = find_maximal_curve(field_of_order(q))
    rng = random.Random(q)
    top = n_max(c.field) - 3
    for n, k in [(top, top - 5), (top, top - 10)] + [
        (n, n - rng.randint(5, 10)) for n in rng.sample(range(q + 2, top), 5)
    ]:
        a = arrange(c, n, k)
        assert residue_parity_check(a) == null_space(generator_matrix(a)), (n, k)
