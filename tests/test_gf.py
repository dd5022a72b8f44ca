import itertools

import pytest
from hypothesis import given, settings, strategies as st

from pairmds.gf import (
    FIELD_TABLE_ENV,
    FieldError,
    FieldSpec,
    absolute_trace,
    field,
    field_of_order,
)

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


def test_primitive_element_is_least_of_full_order():
    for q in (3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27):
        f = field_of_order(q)
        g = f.primitive_element()
        assert brute_order(f, g) == q - 1
        for x in range(1, g):
            assert brute_order(f, x) < q - 1


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


def test_table_override(tmp_path, monkeypatch):
    # GF(8) has two monic irreducible cubics; force the other one
    path = tmp_path / "table.txt"
    path.write_text("2 3 1 0 1 1\n")
    monkeypatch.setenv(FIELD_TABLE_ENV, str(path))
    f = FieldSpec(2, 3)
    assert f.modulus == (1, 0, 1, 1)
    for x in range(1, 8):
        assert f.mul(x, f.inv(x)) == 1
    # a reducible override must be rejected
    path.write_text("2 3 1 1 1 1\n")  # x^3+x^2+x+1 = (x+1)(x^2+1)
    with pytest.raises(FieldError):
        FieldSpec(2, 3)


def test_field_of_order_rejects_non_prime_powers():
    for q in (1, 6, 10, 12, 100):
        with pytest.raises(FieldError):
            field_of_order(q)
