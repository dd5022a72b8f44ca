"""Exact arithmetic in GF(p^a) with a fixed, reproducible element encoding.

Elements are integers in ``0..q-1`` whose base-p digits are the coefficients
of the element in the polynomial basis (digit i = coefficient of x^i).  Code 0
is the additive identity and code 1 the multiplicative identity, so prime
fields behave like plain integers mod p.

Every extension field uses one fixed monic irreducible modulus, shipped in an
embedded table (the polynomial whose integer encoding is smallest).  The table
can be overridden by pointing the ``PAIRMDS_FIELD_TABLE`` environment variable
at a text file with lines ``p a c0 c1 ... ca`` (coefficients by ascending
degree, monic).
"""

from __future__ import annotations

import functools
import os
from typing import List, Sequence, Tuple

MAX_ORDER = 1 << 16

FIELD_TABLE_ENV = "PAIRMDS_FIELD_TABLE"

# One monic irreducible polynomial per (p, a), a >= 2, p^a <= 2^16: the one
# with the smallest integer encoding sum(c_i * p^i).  Degree-1 moduli are
# always x and are not tabulated.
_IRREDUCIBLE = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1),
    (2, 9): (1, 1, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 10): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    (2, 11): (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 12): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 13): (1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 14): (1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 15): (1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 16): (1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (3, 7): (2, 0, 1, 0, 0, 0, 0, 1),
    (3, 8): (2, 0, 1, 0, 0, 0, 0, 0, 1),
    (3, 9): (1, 0, 1, 2, 0, 0, 0, 0, 0, 1),
    (3, 10): (1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1),
    (5, 2): (2, 0, 1),
    (5, 3): (1, 1, 0, 1),
    (5, 4): (2, 0, 0, 0, 1),
    (5, 5): (1, 4, 0, 0, 0, 1),
    (5, 6): (2, 1, 0, 0, 0, 0, 1),
    (7, 2): (1, 0, 1),
    (7, 3): (2, 0, 0, 1),
    (7, 4): (1, 1, 0, 0, 1),
    (7, 5): (3, 1, 0, 0, 0, 1),
    (11, 2): (1, 0, 1),
    (11, 3): (4, 1, 0, 1),
    (11, 4): (2, 1, 0, 0, 1),
    (13, 2): (2, 0, 1),
    (13, 3): (2, 0, 0, 1),
    (13, 4): (2, 0, 0, 0, 1),
    (17, 2): (3, 0, 1),
    (17, 3): (3, 1, 0, 1),
    (19, 2): (1, 0, 1),
    (19, 3): (2, 0, 0, 1),
    (23, 2): (1, 0, 1),
    (23, 3): (3, 1, 0, 1),
    (29, 2): (2, 0, 1),
    (29, 3): (4, 1, 0, 1),
    (31, 2): (1, 0, 1),
    (31, 3): (3, 0, 0, 1),
    (37, 2): (2, 0, 1),
    (37, 3): (2, 0, 0, 1),
    (41, 2): (3, 0, 1),
    (43, 2): (1, 0, 1),
    (47, 2): (1, 0, 1),
    (53, 2): (2, 0, 1),
    (59, 2): (1, 0, 1),
    (61, 2): (2, 0, 1),
    (67, 2): (1, 0, 1),
    (71, 2): (1, 0, 1),
    (73, 2): (5, 0, 1),
    (79, 2): (1, 0, 1),
    (83, 2): (1, 0, 1),
    (89, 2): (3, 0, 1),
    (97, 2): (5, 0, 1),
    (101, 2): (2, 0, 1),
    (103, 2): (1, 0, 1),
    (107, 2): (1, 0, 1),
    (109, 2): (2, 0, 1),
    (113, 2): (3, 0, 1),
    (127, 2): (1, 0, 1),
    (131, 2): (1, 0, 1),
    (137, 2): (3, 0, 1),
    (139, 2): (1, 0, 1),
    (149, 2): (2, 0, 1),
    (151, 2): (1, 0, 1),
    (157, 2): (2, 0, 1),
    (163, 2): (1, 0, 1),
    (167, 2): (1, 0, 1),
    (173, 2): (2, 0, 1),
    (179, 2): (1, 0, 1),
    (181, 2): (2, 0, 1),
    (191, 2): (1, 0, 1),
    (193, 2): (5, 0, 1),
    (197, 2): (2, 0, 1),
    (199, 2): (1, 0, 1),
    (211, 2): (1, 0, 1),
    (223, 2): (1, 0, 1),
    (227, 2): (1, 0, 1),
    (229, 2): (2, 0, 1),
    (233, 2): (3, 0, 1),
    (239, 2): (1, 0, 1),
    (241, 2): (7, 0, 1),
    (251, 2): (1, 0, 1),
}


class FieldError(ValueError):
    """Unsupported field parameters or invalid element operation."""


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def _load_table_override() -> dict:
    path = os.environ.get(FIELD_TABLE_ENV)
    if not path:
        return {}
    table = {}
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [int(tok) for tok in line.split()]
            p, a, coeffs = parts[0], parts[1], tuple(parts[2:])
            if len(coeffs) != a + 1 or coeffs[-1] != 1:
                raise FieldError(f"override modulus for ({p},{a}) is not monic of degree {a}")
            table[(p, a)] = coeffs
    return table


class FieldSpec:
    """A finite field GF(p^a) with a fixed polynomial basis.

    Immutable after construction; all lookup tables are built eagerly so a
    FieldSpec can be shared freely across threads.  Use :func:`field` to get
    the cached instance for given (p, a).
    """

    def __init__(self, p: int, a: int, modulus: Sequence[int] | None = None):
        if not is_prime(p):
            raise FieldError(f"{p} is not prime")
        if a < 1:
            raise FieldError(f"extension degree must be >= 1, got {a}")
        q = p**a
        if q > MAX_ORDER:
            raise FieldError(f"field order {q} exceeds supported maximum {MAX_ORDER}")
        if modulus is None:
            if a == 1:
                modulus = (0, 1)
            else:
                override = _load_table_override()
                if (p, a) in override:
                    modulus = override[(p, a)]
                    if not self._irreducible(list(modulus), p):
                        raise FieldError(f"override modulus for ({p},{a}) is reducible")
                elif (p, a) in _IRREDUCIBLE:
                    modulus = _IRREDUCIBLE[(p, a)]
                else:
                    raise FieldError(f"no modulus tabulated for GF({p}^{a})")
        self.p = p
        self.a = a
        self.q = q
        self.modulus: Tuple[int, ...] = tuple(modulus)
        if len(self.modulus) != a + 1 or self.modulus[-1] != 1:
            raise FieldError("modulus must be monic of degree a")
        self._exp, self._log, self._generator = self._build_tables()

    # -- representation ------------------------------------------------

    def __repr__(self) -> str:
        return f"FieldSpec(p={self.p}, a={self.a})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldSpec)
            and (self.p, self.a, self.modulus) == (other.p, other.a, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.a, self.modulus))

    def digits(self, x: int) -> List[int]:
        """Base-p digits of a code, least significant first (length a)."""
        out = []
        for _ in range(self.a):
            out.append(x % self.p)
            x //= self.p
        return out

    def from_digits(self, digits: Sequence[int]) -> int:
        code = 0
        for d in reversed(digits):
            code = code * self.p + (d % self.p)
        return code

    # -- arithmetic ----------------------------------------------------

    def check(self, x: int) -> int:
        if not 0 <= x < self.q:
            raise FieldError(f"element code {x} out of range for GF({self.q})")
        return x

    def add(self, x: int, y: int) -> int:
        if self.p == 2:
            return x ^ y
        if self.a == 1:
            return (x + y) % self.p
        p = self.p
        out = 0
        mult = 1
        while x or y:
            out += ((x + y) % p) * mult
            x //= p
            y //= p
            mult *= p
        return out

    def neg(self, x: int) -> int:
        if self.p == 2:
            return x
        if self.a == 1:
            return (-x) % self.p
        p = self.p
        out = 0
        mult = 1
        while x:
            out += (-x % p) * mult
            x //= p
            mult *= p
        return out

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def _mul_raw(self, x: int, y: int) -> int:
        """Polynomial product reduced by the modulus, without tables."""
        p = self.p
        xd = self.digits(x)
        yd = self.digits(y)
        prod = [0] * (2 * self.a - 1)
        for i, xi in enumerate(xd):
            if xi:
                for j, yj in enumerate(yd):
                    prod[i + j] = (prod[i + j] + xi * yj) % p
        mod = self.modulus
        for i in range(len(prod) - 1, self.a - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(self.a):
                    prod[i - self.a + j] = (prod[i - self.a + j] - c * mod[j]) % p
        return self.from_digits(prod[: self.a])

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        if self.a == 1:
            return (x * y) % self.p
        return self._exp[self._log[x] + self._log[y]]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if x == 1:
            return 1
        if self.a == 1:
            return pow(x, self.p - 2, self.p)
        return self._exp[(self.q - 1) - self._log[x]]

    def div(self, x: int, y: int) -> int:
        return self.mul(x, self.inv(y))

    def pow(self, x: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(x), -e)
        out = 1
        base = x
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def scalar(self, c: int) -> int:
        """Embed an integer constant via the prime subfield."""
        return c % self.p

    def smul(self, c: int, x: int) -> int:
        """Multiply an element by an integer constant."""
        return self.mul(self.scalar(c), x)

    # -- structure -----------------------------------------------------

    def elements(self) -> range:
        """All element codes in the canonical (ascending) order."""
        return range(self.q)

    def order_of(self, x: int) -> int:
        if x == 0:
            raise FieldError("0 has no multiplicative order")
        n = 1
        y = x
        while y != 1:
            y = self._mul_raw(y, x) if self.a > 1 else (y * x) % self.p
            n += 1
        return n

    def primitive_element(self) -> int:
        """The least element code whose multiplicative order is q-1."""
        return self._generator

    def _build_tables(self):
        q = self.q
        if q == 2:
            return [1, 1], [0, 0], 1
        gen = None
        for x in range(2, q):
            if self.order_of(x) == q - 1:
                gen = x
                break
        if gen is None:  # pragma: no cover - the unit group is always cyclic
            raise FieldError("no generator found")
        exp = [0] * (2 * (q - 1))
        log = [0] * q
        val = 1
        for i in range(q - 1):
            exp[i] = val
            exp[i + q - 1] = val
            log[val] = i
            val = self._mul_raw(val, gen) if self.a > 1 else (val * gen) % self.p
        return exp, log, gen

    @staticmethod
    def _irreducible(coeffs: List[int], p: int) -> bool:
        """Exhaustive factor search; adequate for q <= 2^16."""
        a = len(coeffs) - 1
        for r in range(p):
            v = 0
            for c in reversed(coeffs):
                v = (v * r + c) % p
            if v == 0:
                return False
        for d in range(2, a // 2 + 1):
            for code in range(p**d):
                div = []
                t = code
                for _ in range(d):
                    div.append(t % p)
                    t //= p
                div.append(1)
                if _poly_rem(coeffs, div, p) == [0]:
                    return False
        return True


def _poly_rem(u: Sequence[int], v: Sequence[int], p: int) -> List[int]:
    u = list(u)
    dv = len(v) - 1
    for i in range(len(u) - 1, dv - 1, -1):
        c = u[i]
        if c:
            for j in range(dv + 1):
                u[i - dv + j] = (u[i - dv + j] - c * v[j]) % p
    while len(u) > 1 and u[-1] == 0:
        u.pop()
    return u


@functools.lru_cache(maxsize=None)
def field(p: int, a: int) -> FieldSpec:
    """Cached field constructor; one shared immutable instance per (p, a)."""
    return FieldSpec(p, a)


def absolute_trace(f: FieldSpec, x: int) -> int:
    """Tr(x) = x + x^p + x^(p^2) + ... + x^(p^(a-1)), an element of GF(p)."""
    t = 0
    for _ in range(f.a):
        t = f.add(t, x)
        x = f.pow(x, f.p)
    return t


def field_of_order(q: int) -> FieldSpec:
    """GF(q) for a prime power q, factoring q as p^a."""
    if q < 2:
        raise FieldError(f"{q} is not a prime power")
    p = q
    for d in range(2, q):
        if d * d > q:
            break
        if q % d == 0:
            p = d
            break
    a = 0
    t = q
    while t % p == 0 and t > 1:
        t //= p
        a += 1
    if t != 1:
        raise FieldError(f"{q} is not a prime power")
    return field(p, a)
