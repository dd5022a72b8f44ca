"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines and timings.
"""

import itertools
import math
import random
import time

import pytest

from pairmds import d5, d6, ecmds
from pairmds.gf import field_of_order
from pairmds.linalg import CodeMatrix, LinearCode, normalize_point, null_space
from pairmds.pairmetric import (
    check_theorem_conditions,
    min_hamming_distance_bruteforce,
    min_pair_distance_bruteforce,
    pair_distance,
    pair_weight,
)

from goldens import (
    H2_FULL,
    H2_N5,
    H2_N6,
    H4_FULL,
    H5_FULL,
    H5_N13,
    H5_N14,
    OVOID_Q3,
    OVOID_Q4,
    OVOID_Q4_N7,
)

D5_SWEEP_FIELDS = [2, 3, 4, 5, 7, 8, 9, 11, 13]
D6_SWEEP_FIELDS = [3, 4, 5, 7, 8, 9]
ORACLE_CAP = 1 << 20
MAXIMAL_POINTS = {5: 10, 7: 13, 8: 14, 9: 16, 11: 18, 13: 21}


def _run(num, label, budget_s, fn):
    t0 = time.perf_counter()
    try:
        fn()
    except BaseException:
        print(f"criterion {num} ({label}): FAIL")
        raise
    dt = time.perf_counter() - t0
    print(f"criterion {num} ({label}): PASS in {dt:.1f}s (budget {budget_s:.0f}s)")
    assert dt < budget_s, f"criterion {num} exceeded its time budget: {dt:.1f}s"


def test_criterion_1_golden_matrices():
    def check():
        rows = lambda m: [list(r) for r in m.entries]
        f5, f2, f4, f3 = (field_of_order(x) for x in (5, 2, 4, 3))
        assert rows(d5.build_h_full(f5)) == H5_FULL
        assert rows(d5.build_h(f5, 13)) == H5_N13
        assert rows(d5.build_h(f5, 14)) == H5_N14
        assert rows(d5.build_h_full(f2)) == H2_FULL
        assert rows(d5.build_h(f2, 5)) == H2_N5
        assert rows(d5.build_h(f2, 6)) == H2_N6
        assert rows(d5.build_h_full(f4)) == H4_FULL
        assert rows(d6.construct_d6(f3, 10)[0].parity_check) == OVOID_Q3
        assert rows(d6.construct_d6(f4, 17)[0].parity_check) == OVOID_Q4
        assert rows(d6.construct_d6(f4, 7)[0].parity_check) == OVOID_Q4_N7

    _run(1, "golden matrices", 1.0, check)


def test_criterion_2_d5_sweep():
    def check():
        for q in D5_SWEEP_FIELDS:
            f = field_of_order(q)
            for n in range(5, q * q + q + 2):
                code, cert, _ = d5.construct_d5(f, n)
                assert cert.ok, (q, n, cert.failed_condition)
                assert cert.d_pair == 5 and cert.dim_exponent == n - 3
                assert cert.dependent_set is not None

    _run(2, "pair-distance-5 sweep", 300.0, check)


def test_criterion_3_d6_sweep():
    def check():
        for q in D6_SWEEP_FIELDS:
            f = field_of_order(q)
            for n in range(6, q * q + 2):
                code, cert, _ = d6.construct_d6(f, n)
                assert cert.ok, (q, n, cert.failed_condition)
                assert cert.d_pair == 6 and cert.dim_exponent == n - 4
                assert cert.dependent_set is not None

    _run(3, "pair-distance-6 sweep", 600.0, check)


def test_criterion_4_oracle_equivalence():
    def check():
        for q in D5_SWEEP_FIELDS:
            f = field_of_order(q)
            for n in range(5, q * q + q + 2):
                if q ** (n - 3) > ORACLE_CAP:
                    break
                code, cert, _ = d5.construct_d5(f, n)
                assert min_pair_distance_bruteforce(code) == 5, (q, n)
        for q in D6_SWEEP_FIELDS:
            f = field_of_order(q)
            for n in range(6, q * q + 2):
                if q ** (n - 4) > ORACLE_CAP:
                    break
                code, cert, _ = d6.construct_d6(f, n)
                assert min_pair_distance_bruteforce(code) == 6, (q, n)

    _run(4, "brute-force oracle equivalence", 600.0, check)


def _independent_point_count(f, coeffs):
    """Count projective points by scanning all affine (x, y) pairs."""
    a1, a2, a3, a4, a6 = coeffs
    count = 1
    for x in f.elements():
        x2 = f.mul(x, x)
        rhs = f.add(f.mul(x, x2), f.add(f.mul(a2, x2), f.add(f.mul(a4, x), a6)))
        for y in f.elements():
            lhs = f.add(f.mul(y, y), f.add(f.mul(a1, f.mul(x, y)), f.mul(a3, y)))
            if lhs == rhs:
                count += 1
    return count


def _exhaustive_max_points(q):
    """Largest point count over every (nonsingular) Weierstrass equation.

    For odd characteristic the substitution y -> y - (a1 x + a3)/2 removes
    the cross terms, so scanning y^2 = x^3 + a2 x^2 + a4 x + a6 is
    exhaustive up to isomorphism; characteristic 2 scans the general form.
    """
    f = field_of_order(q)
    best = 0
    if f.p == 2:
        families = itertools.product(f.elements(), repeat=5)
    else:
        families = (
            (0, a2, 0, a4, a6)
            for a2 in f.elements()
            for a4 in f.elements()
            for a6 in f.elements()
        )
    for coeffs in families:
        try:
            ecmds.EllipticCurve(f, *coeffs)
        except Exception:
            continue
        best = max(best, _independent_point_count(f, coeffs))
    return best


def test_criterion_5_maximal_curves():
    def check():
        for q, expected in MAXIMAL_POINTS.items():
            f = field_of_order(q)
            assert ecmds.n_max(f) == expected
            assert _exhaustive_max_points(q) == expected, q
            curve = ecmds.find_maximal_curve(f)
            assert ecmds.ec_point_count(curve) == expected
            assert _independent_point_count(f, curve.coefficients()) == expected

    _run(5, "maximal curve counts", 120.0, check)


def test_criterion_6_ec_family():
    def check():
        for q, n_cap in ((11, 15), (13, 18)):
            f = field_of_order(q)
            assert n_cap == ecmds.n_max(f) - 3
            for n in range(7, n_cap + 1):
                for d_pair in range(7, n + 1):
                    d = d_pair - 2
                    k = n - d
                    code, cert, _ = ecmds.construct_ec(f, n, d)
                    assert cert.ok and cert.checks["window_check"] is True, (q, n, d)
                    if n > q + 1:
                        assert cert.checks["subset_sum_count"] > 0, (q, n, d)
                    if q**k <= ORACLE_CAP:
                        got = min_pair_distance_bruteforce(code)
                        assert got == d_pair, (q, n, d, got)

    _run(6, "elliptic-curve family", 900.0, check)


def _check_field_axioms():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32,
              37, 41, 43, 47, 49, 53, 59, 61, 64):
        f = field_of_order(q)
        elems = list(f.elements())
        add, mul = f.add, f.mul
        for x in elems:
            for y in elems:
                assert add(x, y) == add(y, x)
                assert mul(x, y) == mul(y, x)
        for x in elems:
            for y in elems:
                axy = add(x, y)
                mxy = mul(x, y)
                for z in elems:
                    assert add(axy, z) == add(x, add(y, z))
                    assert mul(mxy, z) == mul(x, mul(y, z))
                    assert mul(z, axy) == add(mul(z, x), mul(z, y))
        for x in elems[1:]:
            assert mul(x, f.inv(x)) == 1
        g = f.primitive_element()
        seen = set()
        y = 1
        for _ in range(q - 1):
            y = mul(y, g)
            seen.add(y)
        assert len(seen) == q - 1 and y == 1


def _check_pair_metric_props():
    f2 = field_of_order(2)
    for n in range(2, 9):
        for u in itertools.product((0, 1), repeat=n):
            for v in itertools.product((0, 1), repeat=n):
                dh = sum(1 for a, b in zip(u, v) if a != b)
                dp = pair_distance(f2, u, v)
                assert dp == pair_weight([f2.sub(a, b) for a, b in zip(u, v)])
                if 0 < dh < n:
                    assert dh + 1 <= dp <= 2 * dh
    for q in (3, 4, 5, 7, 8, 9):
        f = field_of_order(q)
        rng = random.Random(q)
        for _ in range(10_000):
            n = rng.randint(2, 10)
            u = [rng.randrange(q) for _ in range(n)]
            v = [rng.randrange(q) for _ in range(n)]
            dh = sum(1 for a, b in zip(u, v) if a != b)
            dp = pair_distance(f, u, v)
            assert dp == pair_weight([f.sub(a, b) for a, b in zip(u, v)])
            if 0 < dh < n:
                assert dh + 1 <= dp <= 2 * dh


def _check_ovoid_props():
    for q in D6_SWEEP_FIELDS:
        f = field_of_order(q)
        o = d6.elliptic_quadric(f)
        assert len(o.points) == q * q + 1
        # every plane of PG(3, q) meets the ovoid in 1 or q+1 points
        point_set = set(o.points)
        normals = set()
        for coords in itertools.product(f.elements(), repeat=4):
            if any(coords):
                normals.add(normalize_point(f, coords))
        assert len(normals) == (q**4 - 1) // (q - 1)
        for w in normals:
            cnt = 0
            for p in o.points:
                s = 0
                for a, b in zip(w, p):
                    if a and b:
                        s = f.add(s, f.mul(a, b))
                if s == 0:
                    cnt += 1
            assert cnt in (1, q + 1), (q, w, cnt)
        # pencil through A, B: q+1 planes of q+1 points covering the ovoid,
        # pairwise meeting in exactly {A, B}
        assert len(o.planes) == q + 1
        union = set()
        for i, pl in enumerate(o.planes):
            assert len(pl) == q + 1
            union.update(pl)
            for pl2 in o.planes[i + 1 :]:
                assert set(pl) & set(pl2) == {o.A, o.B}
        assert union == point_set


def _check_group_law_and_distance_equivalence():
    for q in (5, 7, 8, 11):
        f = field_of_order(q)
        c = ecmds.find_maximal_curve(f)
        pts = ecmds.ec_points(c)
        assert len(pts) <= 20
        for p, r, s in itertools.product(pts, repeat=3):
            assert ecmds.ec_add(c, ecmds.ec_add(c, p, r), s) == ecmds.ec_add(
                c, p, ecmds.ec_add(c, r, s)
            )
        for p in pts:
            assert ecmds.ec_add(c, p, None) == p
            assert ecmds.ec_add(c, p, ecmds.ec_neg(c, p)) is None
    # Hamming distance is n-k+1 iff no k-subset sums to O, both directions
    f7 = field_of_order(7)
    c7 = ecmds.find_maximal_curve(f7)
    pts7 = [p for p in ecmds.ec_points(c7) if p is not None]
    seen_zero = seen_pos = False
    for subset in itertools.combinations(pts7, 6):
        for k in (2, 3):
            a = ecmds.EvalArrangement(c7, subset, k)
            cnt = ecmds.subset_sum_count(a)
            code = LinearCode(null_space(ecmds.generator_matrix(a)))
            dh = min_hamming_distance_bruteforce(code)
            assert dh == (a.n - k + 1 if cnt == 0 else a.n - k)
            seen_zero = seen_zero or cnt == 0
            seen_pos = seen_pos or cnt > 0
        if seen_zero and seen_pos:
            break
    assert seen_zero and seen_pos


def test_criterion_7_property_suites():
    def check():
        _check_field_axioms()
        _check_pair_metric_props()
        _check_ovoid_props()
        _check_group_law_and_distance_equivalence()

    _run(7, "property suites", 600.0, check)
