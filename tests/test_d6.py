import itertools
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from pairmds import d6, pairmetric
from pairmds.cli import main
from pairmds.d6 import (
    Ovoid,
    construct_d6,
    coplanar,
    elliptic_quadric,
    order_points,
)
from pairmds.errors import ParameterError
from pairmds.gf import field, field_of_order
from pairmds.linalg import CodeMatrix, det4, rank_of_vectors
from pairmds.pairmetric import _first_dependent_subset, check_theorem_conditions

from goldens import OVOID_Q3, OVOID_Q4, OVOID_Q4_N7
from reference import order_points_by_det4, secant_planes_by_normals


def all_projective_points(f, dim):
    """All normalized points of PG(dim, q), by exhaustive normalization."""
    seen = set()
    for coords in itertools.product(f.elements(), repeat=dim + 1):
        if any(coords):
            seen.add(f.normal_form(coords))
    return sorted(seen)


def test_ovoid_sizes():
    assert len(elliptic_quadric(field(7, 1)).points) == 50
    assert len(elliptic_quadric(field(3, 1)).points) == 10
    assert len(elliptic_quadric(field(2, 3)).points) == 65


def test_no_three_collinear_exhaustive_q5():
    # independent oracle: rank of every coordinate triple
    f = field(5, 1)
    pts = elliptic_quadric(f).points
    assert len(pts) == 26
    for triple in itertools.combinations(pts, 3):
        assert rank_of_vectors(f, triple) == 3


def test_every_plane_meets_ovoid_in_1_or_q_plus_1_points_q3():
    f = field(3, 1)
    o = elliptic_quadric(f)
    point_set = set(o.points)
    planes = all_projective_points(f, 3)  # dual space: one normal per plane
    assert len(planes) == 40
    for w in planes:
        cnt = 0
        for p in o.points:
            s = 0
            for a, b in zip(w, p):
                s = f.add(s, f.mul(a, b))
            if s == 0:
                cnt += 1
        assert cnt in (1, 4)


def test_secant_planes_q5():
    o = elliptic_quadric(field(5, 1))
    assert len(o.planes) == 6
    union = set()
    for i, pl in enumerate(o.planes):
        assert len(pl) == 6
        assert o.A in pl and o.B in pl
        union.update(pl)
        for pl2 in o.planes[i + 1 :]:
            assert set(pl) & set(pl2) == {o.A, o.B}
    assert union == set(o.points)


def test_secant_planes_arbitrary_base_points():
    f = field(5, 1)
    o = elliptic_quadric(f)
    A, B = o.points[3], o.points[17]
    planes = secant_planes_by_normals(o.field, o.points, A, B)
    assert len(planes) == 6
    assert all(len(pl) == 6 for pl in planes)
    assert set().union(*map(set, planes)) == set(o.points)


PRIME_POWERS_TO_64 = [
    3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43, 47, 49, 53, 59, 61,
    64,
]


@pytest.mark.parametrize("q", PRIME_POWERS_TO_64 + [81, 125, 128])
def test_pencil_from_the_equation_is_the_pencil_of_normals(q):
    f = field_of_order(q)
    o = elliptic_quadric(f)
    planes = tuple(map(tuple, secant_planes_by_normals(f, o.points, o.A, o.B)))
    assert o.planes == planes
    assert all(pl[:2] == (o.A, o.B) for pl in planes)
    proper = tuple(pl[2:] for pl in planes)
    want = Ovoid(f, o.points, o.A, o.B, planes, o.form_c, proper, d6._pencil_keys(f, proper))
    assert o == want and hash(o) == hash(want)


def test_coplanar_examples():
    f = field(5, 1)
    e = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    assert not coplanar(f, *e)
    assert coplanar(f, e[0], e[1], e[2], e[0])
    o = elliptic_quadric(f)
    others = o.proper[0]
    assert coplanar(f, o.A, o.B, others[0], others[1])


def test_order_points_q5_full():
    o = elliptic_quadric(field(5, 1))
    pts = order_points(o, 26)
    assert len(set(pts)) == 26
    f = o.field
    for i in range(26):
        assert not coplanar(f, *[pts[(i + t) % 26] for t in range(4)])


def test_order_points_odd_short_length_starts_at_third_plane():
    # odd n <= 2q-1: after A, B and one point of plane 0, alternation draws
    # from planes 2 and 3 so the wrap window avoids plane 0
    o = elliptic_quadric(field_of_order(9))
    pts = order_points(o, 7)
    proper = o.proper
    assert pts[0] == o.A and pts[1] == o.B
    assert pts[2] in proper[0]
    assert pts[3] in proper[2]
    assert pts[4] in proper[3]
    assert pts[5] in proper[2]
    assert pts[6] in proper[3]


def test_order_points_even_q_full_interleave():
    # q = 8, n = 65: all points; the first three planes close via the
    # twelve-point interleave with planes 3 and 4
    o = elliptic_quadric(field(2, 3))
    pts = order_points(o, 65)
    assert len(set(pts)) == 65
    proper = [set(pl) for pl in o.proper]

    def plane_of(p):
        for i, s in enumerate(proper):
            if p in s:
                return i
        return None

    planes = [plane_of(p) for p in pts]
    assert planes[:2] == [None, None]  # A, B
    # triple alternation over planes 0, 1, 2
    assert planes[2 : 2 + 18] == [0, 1, 2] * 6
    # interleave: S1, P7, T1, Q7, S2, R7, T2, S3, T3
    assert planes[20:29] == [3, 0, 4, 1, 3, 2, 4, 3, 4]
    # continuation alternates planes 3 and 4
    assert planes[29:37] == [3, 4, 3, 4, 3, 4, 3, 4]


@pytest.mark.parametrize("q", [11, 13, 16])
def test_order_points_every_length(q):
    o = elliptic_quadric(field_of_order(q))
    f = o.field
    ovoid = set(o.points)
    for n in range(6, q * q + 2):
        pts = order_points(o, n)
        assert len(pts) == n and len(set(pts)) == n and set(pts) <= ovoid
        for i in range(n):
            assert not coplanar(f, *[pts[(i + t) % n] for t in range(4)]), (n, i)


def test_order_points_range_errors():
    o = elliptic_quadric(field(5, 1))
    with pytest.raises(ParameterError):
        order_points(o, 5)
    with pytest.raises(ParameterError):
        order_points(o, 27)
    o3 = elliptic_quadric(field(3, 1))
    with pytest.raises(ParameterError):
        order_points(o3, 8)  # the plane walk needs q >= 5


def test_construct_d6_fixed_matrices():
    f3 = field(3, 1)
    code, cert, _ = construct_d6(f3, 10)
    assert [list(r) for r in code.parity_check.entries] == OVOID_Q3
    assert cert.ok and cert.d_pair == 6
    for n in range(6, 10):
        code_n, cert_n, _ = construct_d6(f3, n)
        want = [row[:n] for row in OVOID_Q3]
        assert [list(r) for r in code_n.parity_check.entries] == want
        assert cert_n.ok
    f4 = field(2, 2)
    code7, cert7, _ = construct_d6(f4, 7)
    assert [list(r) for r in code7.parity_check.entries] == OVOID_Q4_N7
    assert cert7.ok
    code17, cert17, _ = construct_d6(f4, 17)
    assert [list(r) for r in code17.parity_check.entries] == OVOID_Q4
    assert cert17.ok
    code6, _, _ = construct_d6(f4, 6)
    assert [list(r) for r in code6.parity_check.entries] == [row[:6] for row in OVOID_Q4]


def test_construct_d6_q5_full():
    code, cert, _ = construct_d6(field(5, 1), 26)
    assert code.k == 22 and cert.ok and cert.d_pair == 6
    assert cert.dependent_set is not None


def test_construct_d6_range_errors():
    f = field(3, 1)
    with pytest.raises(ParameterError):
        construct_d6(f, 5)
    with pytest.raises(ParameterError):
        construct_d6(f, 11)
    with pytest.raises(ParameterError):
        construct_d6(field(2, 1), 6)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_ovoid_axioms(q):
    f = field_of_order(q)
    o = elliptic_quadric(f)
    assert len(o.points) == q * q + 1
    assert len(o.planes) == q + 1
    proper = o.proper
    assert all(len(pl) == q - 1 for pl in proper)
    covered = set()
    for pl in proper:
        covered.update(pl)
    assert len(covered) == q * q - 1


@pytest.mark.parametrize("q,n", [(5, 6), (5, 15), (7, 23), (7, 50), (8, 40), (9, 33)])
def test_construct_d6_spot_checks(q, n):
    f = field_of_order(q)
    code, cert, _ = construct_d6(f, n)
    assert cert.ok and cert.d_pair == 6 and code.k == n - 4
    assert check_theorem_conditions(code.parity_check, 4).ok


def count_size_three_searches(monkeypatch):
    """The column counts of the size-3 dependent-set searches that
    ``pairmetric`` runs after this call (condition 1 searches at size 3
    when d_H = 4)."""
    searched = []
    real = pairmetric._first_dependent_subset

    def counted(f, cols, size, forms=None):
        if size == 3:
            searched.append(len(cols))
        return real(f, cols, size, forms)

    monkeypatch.setattr(pairmetric, "_first_dependent_subset", counted)
    return searched


@pytest.mark.parametrize("q", [7, 8, 9, 11, 13, 16, 25])
def test_ovoid_matrices_certify_condition_1_without_a_search(q, monkeypatch):
    f = field_of_order(q)
    elliptic_quadric(f)
    searched = count_size_three_searches(monkeypatch)
    for n in (7, (q * q + 1) // 2, q * q + 1):
        code, cert, _ = construct_d6(f, n)
        assert cert.ok
        assert check_theorem_conditions(code.parity_check, 4) == cert
    assert searched == []


@pytest.mark.parametrize("q", [5, 7, 8, 9, 11, 13, 16])
def test_standard_quadric_has_no_collinear_triple(q):
    f = field_of_order(q)
    pts = d6._quadric_points(f)
    assert len(set(pts)) == len(pts) == q * q + 1
    assert _first_dependent_subset(f, pts, 3) is None
    # every point is its own normal form
    assert pairmetric._on_elliptic_quadric(f, pts, pts)


def test_q3_fixed_matrix_is_off_the_quadric_and_certified_by_the_search(monkeypatch):
    f = field(3, 1)
    cols = d6._Q3_COLUMNS
    assert not pairmetric._on_elliptic_quadric(f, cols, [f.normal_form(c) for c in cols])
    searched = count_size_three_searches(monkeypatch)
    assert construct_d6(f, len(cols))[1].ok
    assert searched == [len(cols)]


def test_ovoid_is_built_once_per_field(tmp_path, monkeypatch):
    calls = []
    real = d6._quadric_points

    def counted(f):
        calls.append(f.q)
        return real(f)

    monkeypatch.setattr(d6, "_quadric_points", counted)
    elliptic_quadric.cache_clear()
    f = field_of_order(7)
    assert construct_d6(f, 20)[1].ok and construct_d6(f, 20)[1].ok
    assert calls == [7]
    # a sweep over all 21 lengths at q = 5 builds the q = 5 ovoid once
    assert main(["table", "--q", "5", "--dpair", "6", "--out", str(tmp_path / "t.csv")]) == 0
    assert calls == [7, 5]


def test_ordering_leaves_the_cached_ovoid_unchanged():
    for q in (8, 9):
        f = field_of_order(q)
        o = elliptic_quadric(f)
        for n in (7, 41, q * q + 1):
            order_points(o, n)
            construct_d6(f, n)
        assert elliptic_quadric(f) is o
        assert o == elliptic_quadric.__wrapped__(f)
        assert hash(o) == hash(elliptic_quadric.__wrapped__(f))
        assert type(o.proper) is tuple and all(type(pl) is tuple for pl in o.proper)
        assert type(o.pencil_keys) is MappingProxyType
        with pytest.raises(TypeError):
            o.pencil_keys[o.proper[0][0]] = 0


@pytest.mark.parametrize("q", [5, 7, 8, 9, 11, 13, 16])
def test_pencil_keys_keep_the_determinant_orderings(q):
    o = elliptic_quadric(field_of_order(q))
    for n in range(6, q * q + 2):
        assert order_points(o, n) == order_points_by_det4(o, n), n


@settings(max_examples=200, deadline=None)
@given(q=st.sampled_from([5, 7, 8, 9, 11, 16, 25, 27, 32, 49, 64]), data=st.data())
def test_pencil_comparison_is_the_determinant_test(q, data):
    # X1, X2 on plane a and Y1, Y2 on plane b, against every Y2
    o = elliptic_quadric(field_of_order(q))
    key, m = o.pencil_keys, 2 * (q - 1)
    a, b = data.draw(st.lists(st.integers(0, q), min_size=2, max_size=2, unique=True))
    x1, x2 = data.draw(st.lists(st.sampled_from(o.proper[a]), min_size=2, max_size=2, unique=True))
    y1 = data.draw(st.sampled_from(o.proper[b]))
    hits = 0
    for y2 in o.proper[b]:
        if y2 != y1:
            pencil = (key[x1] + key[x2] - key[y1] - key[y2]) % m == 0
            assert pencil == (det4(o.field, (x1, y1, x2, y2)) == 0), y2
            hits += pencil
    # the plane X1 X2 Y1 meets plane b in a line through Y1
    assert hits <= 1


@pytest.mark.parametrize("q", PRIME_POWERS_TO_64[2:])
def test_pencil_key_is_the_log_of_x1(q):
    f = field_of_order(q)
    o = elliptic_quadric(f)
    g = f.primitive_element()
    assert sorted(o.pencil_keys) == sorted(set(o.points) - {o.A, o.B})
    for p, h in o.pencil_keys.items():
        assert 0 <= h < 2 * (q - 1)
        assert f.pow(g, h % (q - 1)) == p[1], p
