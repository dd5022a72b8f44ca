import itertools

import pytest

from pairmds.d6 import (
    Ovoid,
    construct_d6,
    coplanar,
    elliptic_quadric,
    order_points,
    secant_planes,
)
from pairmds.errors import ParameterError
from pairmds.gf import field, field_of_order
from pairmds.linalg import CodeMatrix, normalize_point, rank_of_vectors
from pairmds.pairmetric import check_theorem_conditions

from goldens import OVOID_Q3, OVOID_Q4, OVOID_Q4_N7


def all_projective_points(f, dim):
    """All normalized points of PG(dim, q), by exhaustive normalization."""
    seen = set()
    for coords in itertools.product(f.elements(), repeat=dim + 1):
        if any(coords):
            seen.add(normalize_point(f, coords))
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
    f = field(5, 1)
    o = elliptic_quadric(f)
    planes = secant_planes(o, o.A, o.B)
    assert len(planes) == 6
    union = set()
    for i, pl in enumerate(planes):
        assert len(pl) == 6
        assert o.A in pl and o.B in pl
        union.update(pl)
        for pl2 in planes[i + 1 :]:
            assert set(pl) & set(pl2) == {o.A, o.B}
    assert union == set(o.points)
    with pytest.raises(ParameterError):
        secant_planes(o, o.A, o.A)


def test_secant_planes_arbitrary_base_points():
    f = field(5, 1)
    o = elliptic_quadric(f)
    A, B = o.points[3], o.points[17]
    planes = secant_planes(o, A, B)
    assert len(planes) == 6
    assert all(len(pl) == 6 for pl in planes)
    assert set().union(*map(set, planes)) == set(o.points)


def test_coplanar_examples():
    f = field(5, 1)
    e = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    assert not coplanar(f, *e)
    assert coplanar(f, e[0], e[1], e[2], e[0])
    o = elliptic_quadric(f)
    plane = secant_planes(o, o.A, o.B)[0]
    others = [p for p in plane if p not in (o.A, o.B)]
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
    proper = o.proper_plane_points()
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
    proper = [set(pl) for pl in o.proper_plane_points()]

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
    o = elliptic_quadric(f)  # construction itself verifies for q <= 13
    assert len(o.points) == q * q + 1
    assert len(o.planes) == q + 1
    proper = o.proper_plane_points()
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
