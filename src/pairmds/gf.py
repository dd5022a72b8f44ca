"""Exact arithmetic in GF(p^a) with a fixed, reproducible element encoding.

Elements are integers in ``0..q-1`` whose base-p digits are the coefficients
of the element in the polynomial basis (digit i = coefficient of x^i).  Code 0
is the additive identity and code 1 the multiplicative identity, so prime
fields behave like plain integers mod p.

Every extension field uses one fixed modulus, found when the field is built:
the monic irreducible polynomial whose integer encoding sum(c_i p^i) is
smallest, by Rabin's irreducibility test on the table-free product.  So the
field, and every code file built over it, is a function of (p, a) alone.

Arithmetic is table-driven, and every table but the digit tables of the
vanishing-product kernel is built eagerly when a field is constructed; those
are module caches, built once per field (``_digit_rows``) and per field and
slot width (``_digit_bytes``), so a field sets nothing after construction.
The eager tables are one exp/log pair in every field, safe at 0 (O(q) each;
see ``FieldSpec``), a flat q x q addition table in every field with
q <= 2^8 (at most 65,536 small ints) and beside it q rows of the logs of
differences (at most 65,536 pointers to the log table's ints, 0.5 MB), and,
in odd-characteristic extension fields, a q-entry negation table read from
the exp table.  Prime fields multiply mod p; every other product, and every
quotient, inverse, power and negation, is one exp lookup at a sum,
difference or multiple of logs, with no test for zero.
Scalar addition computes mod p in prime fields and XOR in binary fields;
larger odd-extension fields add digit by digit.  The exp table is filled by
the table-free multiply-by-x step (a shift and one reduction), one coset of
the subgroup generated by x at a time, so a general product is needed only
once per coset.

Vector kernels run a whole vector through the tables in one pass:
``FieldSpec.row_sub_mul`` is the row step of Gaussian elimination and,
at c = 1, every elementwise difference of rows (codeword enumeration's steps,
the null-space basis, pair distances), ``mul_rows`` and ``add_rows`` the
elementwise steps of the batched window determinants, the elliptic
generator matrix and codeword enumeration, ``minor_rows`` the elementwise
a*b - c*d of the window determinants, ``pack_columns`` and ``vanishing``
the vanishing-product kernel (which u . v are 0, for the elliptic h g^T:
the vectors' columns packed once into ints, one per base-p digit,
little-endian on every host, then one pass over them per digit of u),
``element_columns`` and ``vanishing_by_elements`` its element-table form
(each packed column times every element, so u takes one lookup pass and
no product; the elliptic verdict reads it in fields up to
``ELEMENT_TABLE_MAX_ORDER``, since the tables take q / a times the
memory), ``addition_rows`` the addition-table rows
that codeword enumeration reads whole cosets from, and ``normal_form`` and
``project`` the project-and-normalise step of the checker's dependent-set
search; ``project`` maps every later vector from one pivot in one call, and
``project_codes`` does the same for 3- and 4-coordinate vectors and gives
their images as ints, from the pivots (1, ...) and (0, 1, b) in one
comprehension of table lookups that reads the logs of the differences from
the field's rows, so a pivot costs no per-call table building.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import struct
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

MAX_ORDER = 1 << 16

# odd-extension fields up to this order get a flat q x q addition table
ADD_TABLE_MAX_ORDER = 1 << 8

# fields up to this order read vanishing products from element tables
# (``FieldSpec.element_columns``), which take q / a times the memory of the
# digit tables: at a curve's full length 0.6 MB at GF(64), 6.5 MB at GF(81)
# and 190 MB at GF(243)
ELEMENT_TABLE_MAX_ORDER = 1 << 6

# the struct format of an unsigned slot of 1, 2, 4 or 8 bytes
_SLOT_FORMAT = {1: "B", 2: "H", 4: "I", 8: "Q"}


class FieldError(ValueError):
    """Unsupported field parameters or invalid element operation."""


def _shown(x: int) -> str:
    """An int as a message names it: in full up to 30 digits, longer ones by
    their digit count, since a value read from a file or the command line
    can run to thousands of digits."""
    if -10**30 < x < 10**30:
        return str(x)
    digits = int(x.bit_length() * math.log10(2))  # the count is this or one more
    return f"of {digits + (abs(x) >= 10**digits)} digits"


def _named(name: str, x: int) -> str:
    """A named int as a message states it: "n = 4", or "n of 41 digits"
    for a value that ``_shown`` names by its digit count."""
    shown = _shown(x)
    return f"{name} {shown}" if shown.startswith("of ") else f"{name} = {shown}"


def _prime_factors(m: int) -> List[int]:
    """The distinct prime factors of m >= 1, ascending, by trial division.

    The package's only factoriser: it tests primality, splits field orders
    into p^a, finds the orders a generator must avoid and the primes r | a
    of Rabin's test.
    """
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def _mul_raw(p: int, mod: Sequence[int], x: int, y: int) -> int:
    """The product of the codes x and y in GF(p)[x]/(mod), for a monic `mod`
    of degree a >= 1 (coefficients by ascending degree): their polynomials
    multiplied and reduced, without tables."""
    a = len(mod) - 1
    xd, yd = [], []
    for _ in range(a):
        xd.append(x % p)
        yd.append(y % p)
        x //= p
        y //= p
    prod = [0] * (2 * a - 1)
    for i, xi in enumerate(xd):
        if xi:
            for j, yj in enumerate(yd):
                prod[i + j] += xi * yj
    for i in range(2 * a - 2, a - 1, -1):
        c = prod[i] % p
        if c:
            for j in range(a):
                prod[i - a + j] -= c * mod[j]
    out = 0
    for c in reversed(prod[:a]):
        out = out * p + c % p
    return out


def _pow_raw(p: int, mod: Sequence[int], x: int, e: int) -> int:
    """x^e in GF(p)[x]/(mod) for e >= 0 by square-and-multiply, without tables."""
    if e < 0:
        raise ValueError(f"negative exponent {e}")
    if len(mod) == 2:
        return pow(x, e, p)
    out = 1
    while e:
        if e & 1:
            out = _mul_raw(p, mod, out, x)
        e >>= 1
        if e:
            x = _mul_raw(p, mod, x, x)
    return out


def _is_irreducible(p: int, mod: Sequence[int]) -> bool:
    """Rabin's test (M. O. Rabin, "Probabilistic algorithms in finite
    fields", SIAM J. Comput. 9(2), 1980) of a monic `mod` of degree a >= 2
    over GF(p), with q = p^a and x the code p.

    `mod` is irreducible exactly when x^q = x mod `mod` and, for every prime
    r | a, x^(p^(a/r)) - x is a unit mod `mod`.  Given the first condition,
    `mod` is squarefree and each factor's degree d_i divides a, so
    GF(p)[x]/(mod) is the product of the fields GF(p^(d_i)), and h is a unit
    exactly when h^(q-1) = 1.  h - x is h with digit 1 lowered by one.
    """
    a = len(mod) - 1
    q = p**a
    if _pow_raw(p, mod, p, q) != p:
        return False
    for r in _prime_factors(a):
        h = _pow_raw(p, mod, p, p ** (a // r))
        d = h // p % p
        h += ((d - 1) % p - d) * p
        if _pow_raw(p, mod, h, q - 1) != 1:
            return False
    return True


def _least_irreducible(p: int, a: int) -> Tuple[int, ...]:
    """The monic irreducible polynomial of degree a >= 2 over GF(p) whose
    encoding sum(c_i p^i) is smallest; the candidates with c_0 = 0, which x
    divides, are skipped."""
    for code in range(1, p**a):
        if code % p:
            mod = tuple(code // p**i % p for i in range(a)) + (1,)
            if _is_irreducible(p, mod):
                return mod
    raise FieldError(f"no irreducible polynomial of degree {a} over GF({p})")  # pragma: no cover


class FieldSpec:
    """A finite field GF(p^a) with a fixed polynomial basis.

    Immutable after construction: every lookup table is built eagerly, and
    the digit tables of the vanishing-product kernel (``pack_columns``,
    ``vanishing``, which pack and read little-endian on every host) are
    module caches keyed by the field; the element tables of its lookup form
    (``element_columns``, ``vanishing_by_elements``) are built from packed
    columns and belong to their caller.  Every field has one exp/log pair
    that is safe at 0.  With q1 = q - 1 and the sentinel
    z = 3*q1 - 1, ``_log[x]`` is the logarithm of x != 0 to the generator g
    and ``_log[0] = z``; ``_exp`` holds g^0 .. g^(2*q1 - 1) (offsets
    0 .. 2q - 3), then 4*q1 zeros (offsets 2*q1 .. 6*q1 - 1, which cover
    z - (q - 2) .. 2z), then g^1 .. g^(q - 2), which the negative offsets
    2 - q .. -1 read.  So ``_exp[_log[x] + _log[y]]`` is x*y for every x
    and y, and ``_exp[_log[y] - _log[x]]`` is y/x for every y and every
    x != 0.  For q <= ADD_TABLE_MAX_ORDER there is a flat addition table
    indexed by x * q + y, and ``_log_diff[c][y]`` is ``_log[y - c]`` (so z
    at y = c) for every c and y, with the log table's own int objects;
    odd-extension fields also have a negation table (-1 = g^(q1/2)).  Prime
    fields negate mod p and binary fields need no negation.
    Use :func:`field` to get the cached instance for given (p, a).
    """

    def __init__(self, p: int, a: int):
        if a < 1:
            raise FieldError("extension degree must be >= 1")
        # p^a >= 2^((bit length of p - 1) * a) bounds the order before it is
        # computed and before p is factored
        if (p.bit_length() - 1) * a >= MAX_ORDER.bit_length() or p**a > MAX_ORDER:
            raise FieldError(f"field order exceeds supported maximum {MAX_ORDER}")
        if _prime_factors(p) != [p]:
            raise FieldError(f"{p} is not prime")
        q = p**a
        self.p = p
        self.a = a
        self.q = q
        self.modulus: Tuple[int, ...] = (0, 1) if a == 1 else _least_irreducible(p, a)
        exp, log, self._generator = self._build_tables()
        q1 = q - 1
        log[0] = 3 * q1 - 1
        self._exp = exp = exp + [0] * (4 * q1) + exp[1:q1]
        self._log = log
        self._neg: List[int] | None = None
        if p != 2 and a > 1:
            self._neg = [exp[i + q1 // 2] for i in log]
        self._add: List[int] | None = None
        self._log_diff: List[List[int]] | None = None
        if q <= ADD_TABLE_MAX_ORDER:
            # built by the row kernel, which reads no table in prime and
            # binary fields and adds digit by digit while _add is unset
            self._add = add = [
                s for x in range(q) for s in self.add_rows(itertools.repeat(x), range(q))
            ]
            # the log of m + y, per m, holding _log's own int objects
            log_sum = [list(map(log.__getitem__, add[m:m + q])) for m in range(0, q * q, q)]
            self._log_diff = [log_sum[self.neg(c)] for c in range(q)]

    # -- representation ------------------------------------------------

    def __repr__(self) -> str:
        return f"FieldSpec(p={self.p}, a={self.a})"

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldSpec) and (self.p, self.a) == (other.p, other.a)

    def __hash__(self) -> int:
        return hash((self.p, self.a))

    def digits(self, x: int) -> List[int]:
        """Base-p digits of a code, least significant first (length a)."""
        out = []
        for _ in range(self.a):
            out.append(x % self.p)
            x //= self.p
        return out

    # -- arithmetic ----------------------------------------------------

    def check(self, x: int) -> int:
        if type(x) is not int or not 0 <= x < self.q:
            # a container's repr could be as long and as deep as the input
            shown = _shown(x) if type(x) is int else f"of type {type(x).__name__}"
            raise FieldError(f"element code {shown} is not an integer in 0..{self.q - 1}")
        return x

    def add(self, x: int, y: int) -> int:
        if self.p == 2:
            return x ^ y
        if self.a == 1:
            return (x + y) % self.p
        if self._add is not None:
            return self._add[x * self.q + y]
        return self._add_digits(x, y)

    def neg(self, x: int) -> int:
        if self.p == 2:
            return x
        if self.a == 1:
            return (-x) % self.p
        return self._neg[x]

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def row_sub_mul(self, u: Sequence[int], c: int, v: Sequence[int]) -> List[int]:
        """The row u - c*v, elementwise."""
        if self.a == 1:
            p = self.p
            return [(x - c * y) % p for x, y in zip(u, v)]
        exp, log = self._exp, self._log
        if self.p == 2:
            lc = log[c]
            return [x ^ exp[lc + log[y]] for x, y in zip(u, v)]
        lc = log[self._neg[c]]
        add = self._add
        if add is not None:
            q = self.q
            return [add[x * q + exp[lc + log[y]]] for x, y in zip(u, v)]
        return [self._add_digits(x, exp[lc + log[y]]) for x, y in zip(u, v)]

    def mul_rows(self, u: Sequence[int], v: Sequence[int]) -> List[int]:
        """The elementwise product of two rows (as long as the shorter)."""
        if self.a == 1:
            p = self.p
            return [x * y % p for x, y in zip(u, v)]
        exp, log = self._exp, self._log
        return [exp[log[x] + log[y]] for x, y in zip(u, v)]

    def add_rows(self, u: Iterable[int], v: Iterable[int]) -> List[int]:
        """The elementwise sum u + v of two rows (as long as the shorter)."""
        if self.a == 1:
            p = self.p
            return [(x + y) % p for x, y in zip(u, v)]
        if self.p == 2:
            return list(map(operator.xor, u, v))
        add = self._add
        if add is not None:
            q = self.q
            return [add[x * q + y] for x, y in zip(u, v)]
        return list(map(self._add_digits, u, v))

    def minor_rows(
        self, u: Sequence[int], v: Sequence[int], s: Sequence[int], t: Sequence[int]
    ) -> List[int]:
        """The elementwise u v - s t of four rows (as long as the shortest),
        the 2x2 minors of the window determinants, in one pass."""
        rows = zip(u, v, s, t)
        if self.a == 1:
            p = self.p
            return [(x * y - w * z) % p for x, y, w, z in rows]
        exp, log = self._exp, self._log
        if self.p == 2:
            return [exp[log[x] + log[y]] ^ exp[log[w] + log[z]] for x, y, w, z in rows]
        neg, add = self._neg, self._add
        if add is not None:
            q = self.q
            return [
                add[exp[log[x] + log[y]] * q + neg[exp[log[w] + log[z]]]] for x, y, w, z in rows
            ]
        add_digits = self._add_digits
        return [add_digits(exp[log[x] + log[y]], neg[exp[log[w] + log[z]]]) for x, y, w, z in rows]

    def addition_rows(self, u: Sequence[int]) -> List[int]:
        """Rows u_0, u_1, ... of the addition table, concatenated.

        Entry j * q + y is u_j + y, so the entries at j * q + w_j, over every
        j, are the row u + w.  Needs the table, that is
        q <= ADD_TABLE_MAX_ORDER.
        """
        add, q = self._add, self.q
        out: List[int] = []
        for x in u:
            x *= q
            out += add[x:x + q]
        return out

    def pack_columns(self, vectors: Sequence[Sequence[int]]) -> Tuple[List[List[int]], int]:
        """The packed columns of the vanishing-product kernel (``vanishing``)
        and the bytes each vector takes in them, its stride.

        A product is linear in u over GF(p): with e_b the element of code p^b
        and d_b(x) digit b of x, x y = sum over b of d_b(x) (e_b y).  So each
        column t of the vectors is packed once per b into one int,
        ``T[b][t]``, whose slots hold the digits of e_b v_t for every v in
        turn, little-endian on every host: the first v in the lowest bits
        (``_digit_bytes``).  A binary field's slot holds a whole code, so its
        stride is the slot width; other fields have a slots per vector.  A
        slot of ``vanishing`` sums at most n a (p - 1)^2 for rows of length
        n, which sets the width, so no slot carries; columns packed for n
        serve any u that reads at most n of them.
        """
        columns = list(zip(*vectors))
        p, a, n = self.p, self.a, len(columns)
        if p == 2:
            width = (a + 7) // 8
        else:
            bound = max(n, 1) * a * (p - 1) ** 2
            width = next(w for w in (1, 2, 4, 8) if bound >> 8 * w == 0)
        stride = width if p == 2 else width * a
        size = len(vectors) * stride  # bytes per column
        flat = list(itertools.chain.from_iterable(columns))
        tables = []
        for row in _digit_bytes(self, width):
            packed = b"".join(map(row.__getitem__, flat))
            starts = range(0, len(packed), size or 1)
            tables.append([int.from_bytes(packed[i:i + size], "little") for i in starts])
        return tables, stride

    def element_columns(self, tables: Sequence[Sequence[int]]) -> List[List[int]]:
        """The element tables of the digit tables `tables` (``pack_columns``):
        for each column t, the list over every element c of the packed c v_t,
        whose slots are those of S in ``vanishing`` at u_t = c.

        c v_t is the sum over b of d_b(c) T[b][t] (an XOR in binary fields),
        so each list doubles over the digits: the elements below p^(b+1) are
        those below p^b, then d p^b more for d = 1 .. p - 1, each entry one
        big-int add of T[b][t] to the entry p^b below it.  A slot holds at
        most a (p - 1)^2, one column's share of the bound that sets the
        slot width, so sums of at most n entries do not carry either.
        Memory is q / a times the digit tables'.
        """
        add = operator.xor if self.p == 2 else operator.add
        rep = itertools.repeat
        out = []
        for column in zip(*tables):
            row = [0]
            for packed in column:
                block = len(row)
                for _ in range(self.p - 1):
                    row += map(add, row[-block:], rep(packed))
            out.append(row)
        return out

    def vanishing(
        self, us: Iterable[Sequence[int]], tables: Sequence[Sequence[int]], count: int, stride: int
    ) -> Iterator[List[bool]]:
        """The vanishing-product kernel: for each u in `us`, in turn, the
        list over the `count` vectors packed in `tables` at `stride`
        (``pack_columns``) of whether the dot product u . v is 0.  Every u
        is as long as each table, whose int t is column t of the vectors.

        The slots of S = sum over t and b of d_b(u_t) T[b][t] hold the
        digits of u . v for every v: one C-level pass over the columns per
        digit of u, read back by ``_zero_slots``.  Binary fields XOR the
        columns at the set bits of u, so the slots of S are the products
        themselves.
        """
        p, a = self.p, self.a
        zeros = self._zero_slots(count, stride)
        digit_rows = _digit_rows(self) if p != 2 and a > 1 else None
        rep, compress, mul = itertools.repeat, itertools.compress, operator.mul
        for u in us:
            if p == 2:
                s = 0
                for b, table in enumerate(tables):
                    bits = map(operator.and_, u, rep(1 << b))
                    s = functools.reduce(operator.xor, compress(table, bits), s)
            elif a == 1:
                # a prime field's one digit is the element itself; reading
                # it through a digit row made prime fields 1.5x slower
                s = sum(map(mul, compress(tables[0], u), filter(None, u)))
            else:
                nonzero = [x for x in u if x]
                s = sum([
                    sum(map(mul, compress(table, u), map(row.__getitem__, nonzero)))
                    for table, row in zip(tables, digit_rows)
                ])
            yield zeros(s)

    def vanishing_by_elements(
        self, us: Iterable[Sequence[int]], columns: Sequence[List[int]], count: int, stride: int
    ) -> Iterator[List[bool]]:
        """``vanishing`` read from element tables: `columns` holds, per
        column t, its list from ``element_columns``, and each u is as long
        as `columns`.  The vectors packed there may number more than
        `count`; the first `count` are read.

        S = sum over t of columns[t][u_t] (an XOR in binary fields) is one
        C-level lookup pass per u, with no digit split and no product.  No
        slot carries, so the low `count` slots of S are the first `count`
        vectors' own, and the rest is masked off before ``_zero_slots``
        reads them back.
        """
        zeros = self._zero_slots(count, stride)
        mask = (1 << 8 * count * stride) - 1
        get, xor, reduce = list.__getitem__, operator.xor, functools.reduce
        binary = self.p == 2
        for u in us:
            terms = map(get, columns, u)
            yield zeros((reduce(xor, terms, 0) if binary else sum(terms)) & mask)

    def _zero_slots(self, count: int, stride: int) -> Callable[[int], List[bool]]:
        """The read-back of both vanishing kernels: a packed sum S of
        `count` vectors at `stride` bytes each, read little-endian, as it
        was packed, one unsigned slot at a time, to the list of whether
        each vector's product is 0.  In a binary field a vector's slot is
        the product itself; in other fields the product is 0 when every
        one of the vector's a slots is 0 mod p."""
        p, a = self.p, self.a
        size = count * stride
        width = stride if p == 2 else stride // a
        slots = struct.Struct(f"<{size // width}{_SLOT_FORMAT[width]}").unpack
        rep, mod, not_ = itertools.repeat, operator.mod, operator.not_

        def zeros(s: int) -> List[bool]:
            found = slots(s.to_bytes(size, "little"))
            if p != 2:
                found = map(mod, found, rep(p))
                if a > 1:
                    found = map(any, zip(*[found] * a))
            return list(map(not_, found))

        return zeros

    def normal_form(self, v: Sequence[int]) -> Optional[Tuple[int, ...]]:
        """v scaled so its first nonzero entry is 1; None for the zero vector.

        Two nonzero vectors span the same line (are the same projective point)
        exactly when their normal forms are equal.
        """
        for x in v:
            if x:
                if x == 1:
                    return tuple(v)
                exp, log = self._exp, self._log
                s = log[x]
                return tuple([exp[log[y] - s] for y in v])
        return None

    def project(
        self, pivot: Tuple[int, ...], vectors: Sequence[Optional[Tuple[int, ...]]]
    ) -> List[Optional[Tuple[int, ...]]]:
        """Projection from the point `pivot`, fused with normalisation, of
        every vector in `vectors`.

        `pivot` is a normal form whose first nonzero entry sits at index p.
        Each normal form v (None for the zero vector) maps to the normal form
        of v - v[p] * pivot with coordinate p (now 0) dropped, its image in
        the quotient by <pivot>; None when that image is zero.

        A unit vector pivot only drops its coordinate, and rescales the
        vectors that started there.  Every other pivot maps v to the normal
        form of v[:p] followed by v[p+1:] - v[p] * (pivot after p), one row
        kernel pass per vector.  The images of a pivot of length 3 or 4, as
        the last projection of a dependent-set search makes them, come as
        ints from ``project_codes``.
        """
        p = pivot.index(1)
        tail = pivot[p + 1:]
        nf = self.normal_form
        if not any(tail):
            # a unit vector: drop coordinate p, and rescale only the vectors
            # that started there
            return [nf(v[:p] + v[p + 1:]) if v else None for v in vectors]
        sub_mul = self.row_sub_mul
        return [nf(v[:p] + tuple(sub_mul(v[p + 1:], v[p], tail))) if v else None for v in vectors]

    def project_codes(
        self, pivot: Tuple[int, ...], vectors: Sequence[Optional[Tuple[int, ...]]]
    ) -> List[Optional[int]]:
        """``project`` from a pivot of length 3 or 4, each image given as an
        int, so equal images are equal ints: (1, t) as t and (0, 1) as q;
        (1, s, t) as s q + t, (0, 1, t) as q^2 + t and (0, 0, 1) as q^2 + q;
        the zero image as None.  In a field with an addition table, a pivot
        (1, a, b) or (1, a, b, c) takes one comprehension, each ratio one exp
        lookup at a difference of logs from the rows ``_log_diff``:
        v = (1, x, y) maps to (y - b)/(x - a), or to (0, 1) when x = a, and
        v = (1, x, y, z) to (1, (y - b)/(x - a), (z - c)/(x - a)), or to
        (0, 1, (z - c)/(y - b)) when x = a.  A pivot (0, 1, b) with b != 0, a
        point of PG(2, q) on the line at infinity, takes v = (1, x, y) to
        (1, y - x b), with x b one exp lookup and the sum one addition-table
        lookup, and (0, 1, y) to (0, 1) unless y = b.  Unit pivots, other
        pivots that start with 0, the rare vectors of a pivot (1, a, b, c)
        (zero, starting with 0, or with x = a and y = b) and every field
        without an addition table convert ``project``'s tuples (``_codes``)."""
        diff, q = self._log_diff, self.q
        # every pivot but (1, ...) and (0, 1, b) with b != 0
        if diff is None or not pivot[0] and (len(pivot) == 4 or not all(pivot[1:])):
            return self._codes(self.project(pivot, vectors), len(pivot) - 1)
        exp = self._exp
        if len(pivot) == 3:
            lead, a, b = pivot
            if not lead:
                # the log of -b is the log of 0 - b
                add, log, lb = self._add, self._log, diff[b][0]
                return [
                    add[y * q + exp[log[x] + lb]] if o
                    else (q if y != b else None) if x
                    else q if y else None
                    for v in vectors
                    for o, x, y in (v or (0, 0, 0),)
                ]
            la, lb = diff[a], diff[b]
            return [
                exp[lb[y] - la[x]] if o and x != a
                else (q if y != b else None) if o
                else y if x else q if y else None
                for v in vectors
                for o, x, y in (v or (0, 0, 0),)
            ]
        _, a, b, c = pivot
        la, lb, lc = diff[a], diff[b], diff[c]
        codes, project, qq = self._codes, self.project, q * q
        return [
            exp[lb[y] - (s := la[x])] * q + exp[lc[z] - s] if o and x != a
            else qq + exp[lc[z] - lb[y]] if o and y != b
            else codes(project(pivot, (v,)), 3)[0]
            for v in vectors
            for o, x, y, z in (v or (0, 0, 0, 0),)
        ]

    def _codes(
        self, images: Iterable[Optional[Tuple[int, ...]]], m: int
    ) -> List[Optional[int]]:
        """The ints of ``project_codes`` for normal forms of length m = 2
        or 3 (None for None)."""
        q = self.q
        if m == 2:
            return [w if w is None else w[1] if w[0] else q for w in images]
        qq = q * q
        return [
            w if w is None else w[1] * q + w[2] if w[0] else qq + w[2] if w[1] else qq + q
            for w in images
        ]

    def _add_digits(self, x: int, y: int) -> int:
        """Digit-by-digit sum in an odd-characteristic extension field."""
        p = self.p
        out = 0
        mult = 1
        while x or y:
            out += ((x + y) % p) * mult
            x //= p
            y //= p
            mult *= p
        return out

    def mul(self, x: int, y: int) -> int:
        if self.a == 1:
            return x * y % self.p
        return self._exp[self._log[x] + self._log[y]]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._exp[-self._log[x]]

    def div(self, x: int, y: int) -> int:
        if y == 0:
            raise ZeroDivisionError("division by 0")
        return self._exp[self._log[x] - self._log[y]]

    def pow(self, x: int, e: int) -> int:
        if x == 0:
            if e < 0:
                raise ZeroDivisionError("0 has no multiplicative inverse")
            return 0 if e else 1
        return self._exp[self._log[x] * e % (self.q - 1)]

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

    def primitive_element(self) -> int:
        """The least element code whose multiplicative order is q-1."""
        return self._generator

    def _build_tables(self):
        p, q, mod = self.p, self.q, self.modulus
        if q == 2:
            return [1, 1], [0, 0], 1
        # x generates the unit group exactly when x^((q-1)/r) != 1 for every
        # prime r dividing q-1, so a candidate costs O(log q) products per r
        exponents = [(q - 1) // r for r in _prime_factors(q - 1)]
        gen = next(
            (x for x in range(2, q) if all(_pow_raw(p, mod, x, e) != 1 for e in exponents)),
            None,
        )
        if gen is None:  # pragma: no cover - the unit group is always cyclic
            raise FieldError("no generator found")
        exp = [0] * (2 * (q - 1))
        log = [0] * q
        if self.a == 1:
            val = 1
            for i in range(q - 1):
                exp[i] = exp[i + q - 1] = val
                log[val] = i
                val = val * gen % p
            return exp, log, gen
        # Multiplying by x is a shift and one reduction, far cheaper than a
        # general product.  x generates a subgroup of order d, and every unit
        # is gen^j * x^k for one j < c = (q-1)/d and one k < d; with
        # x = gen^step, its logarithm is j + k*step.  So each coset of <x> is
        # walked by the cheap step from gen^j, and only the c coset
        # representatives need general products.
        times_x = self._times_x_step()
        xs = [1]
        val = times_x(1)
        while val != 1:
            xs.append(val)
            val = times_x(val)
        d = len(xs)
        c = (q - 1) // d
        # gen^c generates <x>, say gen^c = x^t, so x = gen^(c * t^-1 mod d)
        step = c * pow(xs.index(_pow_raw(p, mod, gen, c)), -1, d)
        rep = 1
        for j in range(c):
            val = rep
            i = j
            for _ in range(d):
                exp[i] = exp[i + q - 1] = val
                log[val] = i
                val = times_x(val)
                i = (i + step) % (q - 1)
            rep = _mul_raw(p, mod, rep, gen)
        return exp, log, gen

    def _times_x_step(self):
        """The map y -> x*y of an extension field, without tables."""
        p, a = self.p, self.a
        if p == 2:
            overflow = 1 << a
            mod = sum(c << i for i, c in enumerate(self.modulus))

            def times_x(y):
                y <<= 1
                return y ^ mod if y & overflow else y

            return times_x
        high = p ** (a - 1)
        # (p^i, -c) for each nonzero coefficient c of x^i, i < a, in the modulus
        terms = [(p**i, -c) for i, c in enumerate(self.modulus[:a]) if c]

        def times_x(y):
            top, y = divmod(y, high)
            y *= p
            if top:
                # x^a = -(the modulus below x^a); add top times that, digit by digit
                for pw, c in terms:
                    digit = y // pw % p
                    y += ((digit + top * c) % p - digit) * pw
            return y

        return times_x


@functools.lru_cache(maxsize=None)
def field(p: int, a: int) -> FieldSpec:
    """Cached field constructor; one shared immutable instance per (p, a)."""
    return FieldSpec(p, a)


@functools.lru_cache(maxsize=None)
def _digit_bytes(f: FieldSpec, width: int) -> Tuple[Tuple[bytes, ...], ...]:
    """Row b, for b < a, maps each element y to the digits of e_b y (e_b
    the element of code p^b), each digit `width` bytes, little-endian; a
    binary field's code is kept whole.  Built once per field and width."""
    q = f.q
    if f.p == 2:
        enc = [y.to_bytes(width, "little") for y in range(q)]
    else:
        enc = [b"".join(d.to_bytes(width, "little") for d in f.digits(y)) for y in range(q)]
    return tuple(
        tuple(map(enc.__getitem__, f.mul_rows(itertools.repeat(f.p**b), range(q))))
        for b in range(f.a)
    )


@functools.lru_cache(maxsize=None)
def _digit_rows(f: FieldSpec) -> Tuple[Tuple[int, ...], ...]:
    """Row b maps each element code to its base-p digit b, built once per
    field."""
    return tuple(zip(*map(f.digits, range(f.q))))


def absolute_trace(f: FieldSpec, x: int) -> int:
    """Tr(x) = x + x^p + x^(p^2) + ... + x^(p^(a-1)), an element of GF(p)."""
    t = 0
    for _ in range(f.a):
        t = f.add(t, x)
        x = f.pow(x, f.p)
    return t


def field_of_order(q: int) -> FieldSpec:
    """GF(q) for a prime power q = p^a, p its one prime factor."""
    if abs(q) > MAX_ORDER:
        raise FieldError(f"field order {_shown(q)} exceeds supported maximum {MAX_ORDER}")
    factors = _prime_factors(q)
    if len(factors) != 1:
        raise FieldError(f"{q} is not a prime power")
    p = factors[0]
    return field(p, round(math.log(q, p)))
