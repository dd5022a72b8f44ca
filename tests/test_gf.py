import functools
import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from pairmds import gf
from pairmds.gf import (
    ADD_TABLE_MAX_ORDER,
    ELEMENT_TABLE_MAX_ORDER,
    MAX_ORDER,
    FieldError,
    FieldSpec,
    _is_irreducible,
    _least_irreducible,
    _mul_raw,
    _pow_raw,
    _prime_factors,
    absolute_trace,
    field,
    field_of_order,
)

from reference import dot, orthogonal, projector

SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)]


def brute_irreducible_quadratics_gf2():
    """Independent search for monic irreducible quadratics over GF(2)."""
    out = []
    for c0, c1 in itertools.product((0, 1), repeat=2):
        if all((r * r + c1 * r + c0) % 2 != 0 for r in (0, 1)):
            out.append((c0, c1, 1))
    return out


def test_table_lookup_examples():
    assert field(2, 1).modulus == (0, 1)
    # the unique monic irreducible quadratic over GF(2)
    assert brute_irreducible_quadratics_gf2() == [(1, 1, 1)]
    assert field(2, 2).modulus == (1, 1, 1)
    with pytest.raises(FieldError):
        field(4, 1)
    with pytest.raises(FieldError):
        field(2, 17)  # 2^17 above the supported cap


@pytest.mark.parametrize("q", [2, 4, 7, 8, 9, 16, 25, 27])
def test_absolute_trace_is_a_balanced_linear_map_onto_the_prime_field(q):
    f = field_of_order(q)
    tr = [absolute_trace(f, x) for x in f.elements()]
    assert tr[1] == f.a % f.p
    assert sorted(tr) == sorted(list(range(f.p)) * (q // f.p))
    for x, y in itertools.product(f.elements(), repeat=2):
        assert tr[f.add(x, y)] == f.add(tr[x], tr[y])


def test_add_examples():
    assert field(5, 1).add(2, 4) == 1
    assert field(2, 2).add(2, 2) == 0
    assert field(2, 1).add(1, 1) == 0


def test_mul_examples():
    assert field(2, 2).mul(2, 2) == 3  # w * w = w + 1
    assert field(5, 1).mul(3, 4) == 2
    for p, a in SMALL_FIELDS:
        f = field(p, a)
        for x in f.elements():
            assert f.mul(x, 1) == x


def test_inv_examples():
    assert field(7, 1).inv(3) == 5
    g4 = field(2, 2)
    # exhaustive oracle over the three nonzero elements
    want = next(y for y in range(1, 4) if g4.mul(2, y) == 1)
    assert g4.inv(2) == want == 3
    for p, a in SMALL_FIELDS:
        f = field(p, a)
        assert f.inv(1) == 1
        with pytest.raises(ZeroDivisionError):
            f.inv(0)


def brute_order(f, x):
    n, y = 1, x
    while y != 1:
        y = f.mul(y, x)
        n += 1
    return n


def test_primitive_element_examples():
    assert field(5, 1).primitive_element() == 2
    assert brute_order(field(5, 1), 2) == 4
    assert field(2, 1).primitive_element() == 1
    assert field(2, 2).primitive_element() == 2
    assert brute_order(field(2, 2), 2) == 3


def is_prime_power(q):
    p = next(d for d in range(2, q + 1) if q % d == 0)
    while q % p == 0:
        q //= p
    return q == 1


def test_primitive_element_is_least_of_full_order():
    for q in range(3, 1025):
        if not is_prime_power(q):
            continue
        f = field_of_order(q)
        g = f.primitive_element()
        assert brute_order(f, g) == q - 1
        for x in range(1, g):
            assert brute_order(f, x) < q - 1


def counted_raw_products(monkeypatch):
    """A counter of every table-free product made from now on."""
    calls = [0]

    def counted(p, mod, x, y):
        calls[0] += 1
        return _mul_raw(p, mod, x, y)

    monkeypatch.setattr(gf, "_mul_raw", counted)
    return calls


def test_generator_search_is_a_few_powers_per_candidate(monkeypatch):
    calls = counted_raw_products(monkeypatch)
    _least_irreducible(3, 10)
    search = calls[0]
    calls[0] = 0
    f = FieldSpec(3, 10)
    q = f.q
    # apart from the modulus search: the generator search tests
    # x^((q-1)/r) for r in {2, 11, 61} with at most 2 * 16 products per
    # power, for each candidate 2..34 (34 generates); the exp-table walk
    # makes one table-free product per coset of <x> (x has order (q-1)/122
    # here) and at most 2 * 16 for gen^122
    assert f.primitive_element() == 34
    walk = 122 + 2 * q.bit_length()
    assert 0 < calls[0] - search <= (34 - 1) * 3 * 2 * q.bit_length() + walk


@pytest.mark.parametrize("p,a,passing", [(3, 10, 1), (2, 16, 2)])
def test_modulus_search_is_one_power_per_candidate(monkeypatch, p, a, passing):
    calls = counted_raw_products(monkeypatch)
    mod = _least_irreducible(p, a)
    q = p**a
    # each candidate up to the modulus with c_0 != 0 takes x^q, at most
    # 2 * bit_length(q) products; the ones with x^q = x (the modulus, and
    # x^16 + x + 1 at GF(2^16)) add x^(p^(a/r)) and a (q-1)-th power for
    # each prime r | a
    low = sum(c * p**i for i, c in enumerate(mod[:-1]))
    tried = sum(1 for code in range(1, low + 1) if code % p)
    powers = tried + passing * 2 * len(gf._prime_factors(a))
    assert 0 < calls[0] <= powers * 2 * q.bit_length()


def table_free_mul(f):
    return functools.partial(_mul_raw, f.p, f.modulus) if f.a > 1 else (lambda x, y: x * y % f.q)


def check_exp_log_walk(f, steps):
    """exp[i+1] = exp[i] * gen by the table-free product over the first
    2(q-1) entries of exp, and log inverts the first q-1."""
    q, g = f.q, f.primitive_element()
    exp, log = f._exp, f._log
    assert exp[0] == 1
    mul = table_free_mul(f)
    for i in steps:
        assert exp[i + 1] == mul(exp[i], g), (q, i)
        assert log[exp[i]] == i % (q - 1)


def test_exp_log_tables_follow_the_generator_up_to_2_12():
    for q in range(3, 4097):
        if is_prime_power(q):
            f = field_of_order(q)
            check_exp_log_walk(f, range(2 * q - 3))
            assert sorted(f._exp[:q - 1]) == list(range(1, q))


def check_products_and_quotients(f, pairs):
    """exp at the sum of two logs is the table-free product, and exp at
    their difference is the quotient, for every pair (x, y) with x != 0."""
    exp, log = f._exp, f._log
    mul = table_free_mul(f)
    for x, y in pairs:
        assert exp[log[x] + log[y]] == mul(x, y), (f, x, y)
        if x:
            assert mul(exp[log[y] - log[x]], x) == y, (f, x, y)


def test_log_sums_and_differences_are_products_and_quotients_up_to_2_8():
    for q in range(2, 257):
        if is_prime_power(q):
            f = field_of_order(q)
            check_products_and_quotients(f, itertools.product(range(q), repeat=2))


@pytest.mark.parametrize("q", [3**10, 2**16])
def test_exp_log_tables_of_the_largest_fields_sampled(q):
    f = field_of_order(q)
    rng = random.Random(q)
    steps = [0, q - 2, 2 * q - 4] + rng.sample(range(2 * q - 3), 3000)
    check_exp_log_walk(f, steps)
    assert sorted(f._exp[:q - 1]) == list(range(1, q))
    xs = [0, 1, q - 1] + [rng.randrange(q) for _ in range(60)]
    check_products_and_quotients(f, itertools.product(xs, repeat=2))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 13, 16, 25, 27, 32, 49, 64, 81])
def test_pow_inv_and_div_match_the_table_free_power(q):
    f = field_of_order(q)
    mul = table_free_mul(f)
    for x in range(1, q):
        for e in range(-q, 2 * q + 1):
            if e >= 0:
                assert f.pow(x, e) == _pow_raw(f.p, f.modulus, x, e), (x, e)
            else:
                assert mul(f.pow(x, e), _pow_raw(f.p, f.modulus, x, -e)) == 1, (x, e)
        assert f.inv(x) == f.pow(x, -1)
        for y in range(q):
            assert mul(f.div(y, x), x) == y
    assert f.pow(0, 0) == 1
    assert all(f.pow(0, e) == 0 for e in range(1, 2 * q + 1))
    for e in (-1, -q):
        with pytest.raises(ZeroDivisionError):
            f.pow(0, e)
    with pytest.raises(ZeroDivisionError):
        f.div(1, 0)


@pytest.mark.parametrize("q", [7, 9])
def test_table_free_power_rejects_a_negative_exponent(q):
    # square-and-multiply would never end: e >>= 1 keeps -1 at -1
    f = field_of_order(q)
    for e in (-1, -q):
        with pytest.raises(ValueError):
            _pow_raw(f.p, f.modulus, 2, e)


@pytest.mark.parametrize("q", [4, 7, 8, 9, 25, 27, 32])
def test_log_difference_rows_hold_the_log_of_every_difference(q):
    f = field_of_order(q)
    rows, exp, log = f._log_diff, f._exp, f._log
    assert len(rows) == q
    for c in range(q):
        assert len(rows[c]) == q
        for y in range(q):
            assert exp[rows[c][y]] == f.sub(y, c), (c, y)
            # the rows share the log table's int objects
            assert rows[c][y] is log[f.sub(y, c)]
        assert rows[c][c] == log[0]


def test_fields_without_an_addition_table_have_no_log_difference_rows():
    assert field_of_order(ADD_TABLE_MAX_ORDER)._log_diff is not None
    assert field_of_order(3**6)._log_diff is None


def test_elements_order():
    assert list(field(3, 1).elements()) == [0, 1, 2]
    assert list(field(2, 2).elements()) == [0, 1, 2, 3]
    for p, a in SMALL_FIELDS:
        f = field(p, a)
        assert len(list(f.elements())) == f.q


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_field_axioms_exhaustive(q):
    f = field_of_order(q)
    elems = list(f.elements())
    for x, y in itertools.product(elems, repeat=2):
        assert f.add(x, y) == f.add(y, x)
        assert f.mul(x, y) == f.mul(y, x)
    for x, y, z in itertools.product(elems, repeat=3):
        assert f.add(f.add(x, y), z) == f.add(x, f.add(y, z))
        assert f.mul(f.mul(x, y), z) == f.mul(x, f.mul(y, z))
        assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))
    for x in elems[1:]:
        assert f.mul(x, f.inv(x)) == 1
    for x in elems:
        assert f.add(x, f.neg(x)) == 0
        assert f.add(x, 0) == x
        assert f.mul(x, 0) == 0


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 64, 81, 121, 125, 128, 169, 243, 256])
def test_frobenius(q):
    f = field_of_order(q)
    for x in f.elements():
        assert f.pow(x, q) == x


def by_elements(f, us, vectors, extra=()):
    """For each u in `us`, the list over `vectors` of whether u . v is 0,
    by the element-table kernel: the columns of `vectors` and then of
    `extra` packed and expanded to element tables, of which the kernel
    reads the first len(vectors) slots."""
    tables, stride = f.pack_columns([*vectors, *extra])
    columns = f.element_columns(tables)
    return list(f.vanishing_by_elements(us, columns, len(vectors), stride))


# prime, 2^a, odd extension with the flat addition table, odd extension
# with the digit loop
@settings(max_examples=200, deadline=None)
@given(q=st.sampled_from([7, 8, 9, 3**6]), n=st.integers(0, 40), data=st.data())
def test_dot_matches_scalar_reference(q, n, data):
    f = field_of_order(q)
    # zeros are drawn often, so products vanish from either side
    entry = st.integers(0, q - 1) | st.just(0)
    u = data.draw(st.lists(entry, min_size=n, max_size=n))
    v = data.draw(st.lists(entry, min_size=n, max_size=n))
    if any(u) and data.draw(st.booleans()):
        # a vanishing product with nonzero terms
        t = data.draw(st.sampled_from([j for j, x in enumerate(u) if x]))
        v[t] = 0
        v[t] = f.div(f.sub(0, dot(f, u, v)), u[t])
    want = 0
    for x, y in zip(u, v):
        want = f.add(want, f.mul(x, y))
    assert dot(f, u, v) == want
    assert orthogonal(f, [u], [v]) == [[want == 0]]
    assert orthogonal(f, [tuple(v)], [tuple(u)]) == [[want == 0]]
    if q <= ELEMENT_TABLE_MAX_ORDER:
        assert by_elements(f, [u], [v]) == [[want == 0]]
        assert by_elements(f, [tuple(v)], [tuple(u)]) == [[want == 0]]


def _with_product(f, u, v, target, rng):
    """v changed at one nonzero position of u so that u . v = target."""
    t = rng.choice([j for j, x in enumerate(u) if x])
    v = list(v)
    v[t] = 0
    v[t] = f.div(f.sub(target, dot(f, u, v)), u[t])
    return v


# GF(729) has no addition table; GF(16) adds by XOR, GF(13) mod p
@pytest.mark.parametrize("q", [13, 16, 25, 27, 243, 729])
def test_orthogonal_matches_the_reference_dot(q):
    f = field_of_order(q)
    rng = random.Random(q)
    # e_b, the element of code p^b: its product digits vanish in every slot
    # but slot b, so some slot sums are 0 mod p and one is not
    targets = [0] + [f.p**b for b in range(f.a)] + [q - 1]
    for _ in range(40):
        n = rng.randint(1, 40)
        density = rng.choice([0.1, 0.5, 1.0])  # 1.0: a dense, hostile row
        us = [
            [rng.randrange(1, q) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(rng.randint(1, 6))
        ]
        vs = [[rng.randrange(q) for _ in range(n)] for _ in range(rng.randint(0, 12))]
        u0 = us[0]
        u0[rng.randrange(n)] = rng.randrange(1, q)
        planted = [u for u in us if any(u)]
        vs += [_with_product(f, rng.choice(planted), v, rng.choice(targets), rng) for v in vs[:6]]
        vs.append(_with_product(f, u0, [rng.randrange(q) for _ in range(n)], 0, rng))
        got = orthogonal(f, us, vs)
        assert got == [[dot(f, u, v) == 0 for v in vs] for u in us], (q, us, vs)
        assert got[0][-1]


# every field with element tables: prime, binary and odd-extension
_ELEMENT_FIELDS = [q for q in range(2, ELEMENT_TABLE_MAX_ORDER + 1) if len(_prime_factors(q)) == 1]


@pytest.mark.parametrize("q", _ELEMENT_FIELDS)
def test_element_table_kernel_matches_the_reference_dot(q):
    f = field_of_order(q)
    rng = random.Random(q)
    targets = [0] + [f.p**b for b in range(f.a)] + [q - 1]
    for _ in range(30):
        n = rng.randint(1, 40)
        density = rng.choice([0.0, 0.1, 0.5, 1.0])  # zero, sparse and dense rows
        us = [
            [rng.randrange(1, q) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(rng.randint(1, 6))
        ]
        us += [[0] * n, [q - 1] * n]
        vs = [[rng.randrange(q) for _ in range(n)] for _ in range(rng.randint(0, 12))]
        vs.append([q - 1] * n)
        planted = [u for u in us if any(u)]
        vs += [_with_product(f, rng.choice(planted), v, rng.choice(targets), rng) for v in vs[:6]]
        vs.append(_with_product(f, us[0] if any(us[0]) else us[-1], vs[0], 0, rng))
        # vectors packed after the read ones are masked off
        extra = [[rng.randrange(q) for _ in range(n)] for _ in range(rng.randint(0, 3))]
        got = by_elements(f, us, vs, extra)
        assert got == [[dot(f, u, v) == 0 for v in vs] for u in us], (q, us, vs)
        assert got[-2] == [True] * len(vs)


def test_orthogonal_on_edge_shapes():
    for q in (5, 8, 9):
        f = field_of_order(q)
        for kernel in (orthogonal, by_elements):
            assert kernel(f, [[1, 2]], []) == [[]]
            assert kernel(f, [], [[1, 2]]) == []
            got = kernel(f, [[0, 0], [1, 0]], [[0, 1], [1, 1]])
            assert got == [[True, True], [True, False]]
            assert kernel(f, [()], [(), ()]) == [[True, True]]


def point_code(q, w):
    """The int that stands for a normal form w of length 2 or 3 (None for
    None): the forms (1, ...) by the base-q value of their tail, then the
    forms (0, 1, ...), then (0, 0, 1)."""
    if w is None:
        return None
    lead = w.index(1)
    tail = 0
    for x in w[lead + 1:]:
        tail = tail * q + x
    return sum(q ** (len(w) - 1 - j) for j in range(lead)) + tail


def test_point_codes_number_the_projective_points():
    f = field_of_order(7)
    for m in (2, 3):
        forms = {f.normal_form(w) for w in itertools.product(range(7), repeat=m)} - {None}
        assert sorted(point_code(7, w) for w in forms) == list(range(len(forms)))


# GF(729) has no addition table and converts project's tuples throughout
@pytest.mark.parametrize("q", [4, 7, 8, 9, 27, 729])
def test_project_codes_are_the_projected_normal_forms(q):
    f = field_of_order(q)
    rng = random.Random(q)

    def elem():
        return rng.randrange(q)

    def check(pivot, vectors):
        image = projector(f, pivot)
        want = [point_code(q, image(v)) for v in vectors]
        assert f.project_codes(pivot, vectors) == want, (pivot, vectors)

    forms = [None, (0, 0, 1)] + [f.normal_form((0, 1, elem())) for _ in range(5)]
    forms += [(1, elem(), elem()) for _ in range(30)]
    for pivot in forms[1:]:
        check(pivot, rng.sample(forms, 20) + [pivot])
    # 4-coordinate pivots of every kind, against the zero vector, the pivot
    # itself, vectors that start with 0 (whose images start with 1, 0 or
    # nothing before the 1) and vectors that share x = a, with y = b or not
    pivots = [(1, elem(), elem(), elem()) for _ in range(12)]
    pivots += [(1, 0, 0, 0), (0, 1, elem(), elem()), (0, 1, 0, 0), (0, 0, 1, elem()), (0, 0, 0, 1)]
    for pivot in pivots:
        a, b, c = pivot[1:]
        vectors = [None, pivot, (0, 0, 0, 1), (0, 0, 1, elem()), (0, 1, elem(), elem())]
        vectors += [(0, 1, b, c), (0, 1, elem(), c), (0, 0, 1, c)]
        vectors += [(1, a, b, c), (1, a, b, elem()), (1, a, elem(), elem()), (1, a, elem(), c)]
        vectors += [(1, elem(), elem(), elem()) for _ in range(20)]
        rng.shuffle(vectors)
        check(pivot, vectors)
    # every pivot (0, 1, b), the line at infinity's points of PG(2, q),
    # against every normal form of length 3 and the zero vector
    if q <= 9:
        forms = {f.normal_form(w) for w in itertools.product(range(q), repeat=3)} - {None}
        for b in range(q):
            check((0, 1, b), [None] + sorted(forms))


def test_orthogonal_builds_its_tables_on_first_use():
    f = FieldSpec(3, 3)
    attributes = dict(vars(f))
    gf._digit_bytes.cache_clear()
    gf._digit_rows.cache_clear()
    # rows of 3 and 30 entries take 1- and 2-byte slots (30 * 3 * 2^2 > 255)
    for n in (3, 3, 30, 3, 30):
        orthogonal(f, [[1] * n], [[2] * n, [5] * n])
    # each digit table is built once per (field, width), the digit rows once
    # per field
    assert gf._digit_bytes.cache_info().misses == 2
    assert gf._digit_bytes.cache_info().currsize == 2
    assert gf._digit_rows.cache_info().misses == 1
    # the tables live in the caches: the field sets no attribute after
    # construction, which would slow every attribute read
    assert vars(f) == attributes
    gf._digit_bytes.cache_clear()
    gf._digit_rows.cache_clear()


@settings(max_examples=300, deadline=None)
@given(
    q=st.sampled_from([3, 4, 5, 8, 9, 27, 49]),
    data=st.data(),
)
def test_field_axioms_sampled(q, data):
    f = field_of_order(q)
    x = data.draw(st.integers(0, q - 1))
    y = data.draw(st.integers(0, q - 1))
    z = data.draw(st.integers(0, q - 1))
    assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))
    assert f.sub(f.add(x, y), y) == x
    if y != 0:
        assert f.mul(f.div(x, y), y) == x


def poly_rem(u, v, p):
    """Remainder of u modulo the monic v over GF(p), coefficients by ascending degree."""
    u = list(u)
    dv = len(v) - 1
    for i in range(len(u) - 1, dv - 1, -1):
        c = u[i]
        if c:
            for j in range(dv + 1):
                u[i - dv + j] = (u[i - dv + j] - c * v[j]) % p
    return u[:dv]


def monic(p, d, code):
    """The monic degree-d polynomial whose lower coefficients are the base-p digits of code."""
    return tuple(code // p**i % p for i in range(d)) + (1,)


def is_irreducible(p, u):
    """Trial division by every monic polynomial of degree 1..deg(u)/2."""
    a = len(u) - 1
    return all(
        any(poly_rem(u, monic(p, d, code), p))
        for d in range(1, a // 2 + 1)
        for code in range(p**d)
    )


def test_computed_moduli_are_the_least_monic_irreducibles():
    primes = [p for p in range(2, 257) if all(p % d for d in range(2, p))]
    keys = {(p, a) for p in primes for a in range(2, 17) if p**a <= MAX_ORDER}
    assert len(keys) == 93
    for p, a in keys:
        mod = _least_irreducible(p, a)
        assert len(mod) == a + 1 and mod[-1] == 1
        assert all(0 <= c < p for c in mod)
        assert is_irreducible(p, mod)
        # every monic polynomial of degree a with a smaller encoding factors
        low = sum(c * p**i for i, c in enumerate(mod[:-1]))
        assert not any(is_irreducible(p, monic(p, a, code)) for code in range(low))


def test_rabin_test_agrees_with_trial_division_up_to_2_8():
    fields = [(p, a) for p in (2, 3, 5, 7, 11, 13) for a in range(2, 9) if p**a <= 256]
    for p, a in fields:
        for code in range(1, p**a):
            if code % p:
                mod = monic(p, a, code)
                assert _is_irreducible(p, mod) == is_irreducible(p, mod), mod
    # over GF(3), x^2 + 2 = (x - 1)(x - 2) has x^9 = x, and only its unit
    # condition, on x^3 - x, rejects it
    assert _pow_raw(3, (2, 0, 1), 3, 9) == 3
    assert not _is_irreducible(3, (2, 0, 1))


def test_field_does_not_read_a_table_file(tmp_path, monkeypatch):
    # the field is a function of (p, a): no environment variable changes it
    monkeypatch.setenv("PAIRMDS_FIELD_TABLE", str(tmp_path / "missing.txt"))
    f = FieldSpec(2, 3)
    assert f == field(2, 3)
    assert f.modulus == field(2, 3).modulus == (1, 1, 0, 1)


def test_field_of_order_rejects_non_prime_powers():
    for q in (1, 6, 10, 12, 100):
        with pytest.raises(FieldError):
            field_of_order(q)


def test_field_of_order_splits_every_prime_power_up_to_2_12():
    for q in range(1, 4097):
        if q > 1 and is_prime_power(q):
            f = field_of_order(q)
            assert f.p == next(d for d in range(2, q + 1) if q % d == 0)
            assert f.p**f.a == q
        else:
            with pytest.raises(FieldError):
                field_of_order(q)
    assert (field_of_order(63001).p, field_of_order(63001).a) == (251, 2)
    assert (field_of_order(65521).p, field_of_order(65521).a) == (65521, 1)
    assert (field_of_order(65536).p, field_of_order(65536).a) == (2, 16)
    for q in (65535, 65537):
        with pytest.raises(FieldError):
            field_of_order(q)


@pytest.mark.parametrize("p,a", [(2, 10**5), (3, 5000), (10**18 + 9, 1), (2, 17), (4, 1)])
def test_field_spec_bounds_the_order_before_factoring(p, a):
    t0 = time.perf_counter()
    with pytest.raises(FieldError) as exc:
        FieldSpec(p, a)
    assert time.perf_counter() - t0 < 0.1
    assert len(str(exc.value)) < 200


@pytest.mark.parametrize("x", [0.0, 2.5, True, False, "1", None])
def test_check_rejects_non_integers(x):
    with pytest.raises(FieldError):
        field(11, 1).check(x)


def digit_add(p, x, y):
    """Reference sum of two element codes, base-p digit by digit."""
    out, mult = 0, 1
    while x or y:
        out += ((x + y) % p) * mult
        x, y, mult = x // p, y // p, mult * p
    return out


def digit_neg(p, x):
    out, mult = 0, 1
    while x:
        out += (-x % p) * mult
        x, mult = x // p, mult * p
    return out


# prime, binary, odd extensions with an addition table, and one without
KERNEL_FIELDS = [2, 5, 13, 97, 4, 16, 256, 9, 25, 27, 49, 243, 729]


@pytest.mark.parametrize("q", KERNEL_FIELDS)
def test_table_arithmetic_and_row_kernel_match_digit_loops(q):
    f = field_of_order(q)
    p = f.p
    rng = random.Random(q)
    for x in f.elements():
        assert f.neg(x) == digit_neg(p, x)
    if q <= 256:
        pairs = itertools.product(f.elements(), repeat=2)
    else:
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(5000)]
    for x, y in pairs:
        assert f.add(x, y) == digit_add(p, x, y)
        assert f.sub(x, y) == digit_add(p, x, digit_neg(p, y))
    cs = [0, 1, q - 1] + [rng.randrange(q) for _ in range(20)]
    rows = [[0] * 12, [rng.randrange(q) for _ in range(12)]]
    rows += [[rng.choice((0, rng.randrange(q))) for _ in range(12)] for _ in range(10)]
    for c in cs:
        for u in rows:
            for v in rows:
                want = [digit_add(p, x, digit_neg(p, f.mul(c, y))) for x, y in zip(u, v)]
                assert f.row_sub_mul(u, c, v) == want


@pytest.mark.parametrize("q", KERNEL_FIELDS)
def test_add_rows_and_addition_rows_match_scalar_add(q):
    f = field_of_order(q)
    rng = random.Random(q + 1)
    rows = [[0] * 9, [q - 1] * 9] + [[rng.randrange(q) for _ in range(9)] for _ in range(20)]
    for u in rows:
        for v in rows:
            assert f.add_rows(u, v) == [f.add(x, y) for x, y in zip(u, v)]
    if q <= ADD_TABLE_MAX_ORDER:
        # the whole addition table, row by row
        assert f.addition_rows(range(q)) == [f.add(x, y) for x in range(q) for y in range(q)]


@st.composite
def projection_cases(draw):
    """A pivot in normal form and a list of normal forms to project from it:
    zero vectors, vectors that start before, at or after the pivot's
    leading index, and vectors that start there and agree with the pivot
    on the next one or two coordinates (a first difference of 0)."""
    q = draw(st.sampled_from([5, 13, 4, 16, 9, 27, 729]))
    f = field_of_order(q)
    m = draw(st.integers(3, 6))
    entry = st.one_of(st.just(0), st.integers(0, q - 1))
    p = draw(st.integers(0, m - 1))
    pivot = (0,) * p + (1,) + tuple(draw(entry) for _ in range(m - p - 1))

    def starting_at(s):
        return (0,) * s + (1,) + tuple(draw(entry) for _ in range(m - s - 1))

    vectors = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["zero", "before", "at", "after", "same-1", "same-2", "pivot"]))
        if kind == "zero":
            vectors.append(None)
        elif kind == "before" and p:
            vectors.append(starting_at(draw(st.integers(0, p - 1))))
        elif kind == "after" and p < m - 1:
            vectors.append(starting_at(draw(st.integers(p + 1, m - 1))))
        elif kind in ("same-1", "same-2"):
            same = p + (2 if kind == "same-1" else 3)
            v = starting_at(p)
            vectors.append(pivot[:same] + v[same:])
        elif kind == "pivot":
            vectors.append(pivot)
        else:
            vectors.append(starting_at(p))
    return f, pivot, vectors


# prime, binary, odd extension with the flat addition table, odd extension
# with the digit loop; vector lengths 3-6
@settings(max_examples=500, deadline=None)
@given(case=projection_cases())
def test_batched_projection_matches_the_per_vector_reference(case):
    from reference import projector

    f, pivot, vectors = case
    assert f.project(pivot, vectors) == list(map(projector(f, pivot), vectors)), (f, pivot, vectors)
