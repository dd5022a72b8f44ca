"""Parity-check matrices for MDS symbol-pair codes of pair distance 5.

The full 3 x (q^2 + q + 1) matrix H(q) lists one representative of every
projective point of PG(2, q): the blocks B_i hold the affine points
(1, a, a^2 + x_i), a vector (0, 1, y) is inserted before each block, and
(0, 0, 1) closes the matrix.  Any two columns are then independent and any
three cyclically consecutive columns are independent; truncation to length n
keeps those properties.

For odd q the inserted value before B_i is 2*x_i.  For even q >= 8 doubling
degenerates, so the insertions are chosen as a perfect matching in the
bipartite graph between field values and insertion locations (value y fits
location L_j iff y differs from x_j + x_{j-1} and x_j + x_{j+1}).  q = 2 and
q = 4 use fixed matrices.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import ConstructionError, ParameterError
from .gf import FieldSpec, _named
from .linalg import CodeMatrix, LinearCode
from .pairmetric import (
    COND_DEPENDENT_SET_EXISTS,
    PairCertificate,
    check_theorem_conditions,
)

Column = Tuple[int, int, int]

# Fixed matrices for the two fields where the general scheme degenerates,
# as column lists.  GF(4) elements: 2 is a primitive element w, 3 is w + 1.
_H2_COLUMNS: Tuple[Column, ...] = (
    (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1), (1, 0, 1),
)
_H2_N5: Tuple[Column, ...] = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 0, 1))
_H2_N6: Tuple[Column, ...] = (
    (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (0, 1, 1), (1, 0, 1),
)
_H4_COLUMNS: Tuple[Column, ...] = (
    (0, 1, 0), (1, 0, 0), (1, 1, 1), (1, 2, 3), (1, 3, 2),
    (0, 1, 3), (1, 3, 3), (1, 2, 2), (1, 1, 0), (1, 0, 1),
    (0, 1, 2), (1, 0, 2), (1, 3, 0), (1, 2, 1), (1, 1, 3),
    (0, 1, 1), (1, 1, 2), (1, 2, 0), (1, 3, 1), (1, 0, 3),
    (0, 0, 1),
)


@dataclass(frozen=True)
class XOrder:
    """A permutation x_0, ..., x_{q-1} of all field elements."""

    field: FieldSpec
    order: Tuple[int, ...]

    def __post_init__(self):
        if sorted(self.order) != list(self.field.elements()):
            raise ValueError("not a permutation of the field")


def canonical_xorder(f: FieldSpec) -> XOrder:
    """Canonical element order: ascending codes, except that even q >= 8
    presets the prefix 0, 1, w, w^2, w+1, w^2+w (w a primitive element)."""
    if f.p == 2 and f.q >= 8:
        w = f.primitive_element()
        w2 = f.mul(w, w)
        prefix = [0, 1, w, w2, f.add(w, 1), f.add(w2, w)]
        if len(set(prefix)) != 6:  # pragma: no cover - distinct for q >= 8
            raise ConstructionError("preset prefix collides")
        rest = [x for x in f.elements() if x not in set(prefix)]
        return XOrder(f, tuple(prefix + rest))
    return XOrder(f, tuple(f.elements()))


def _block_columns(x: XOrder, i: int) -> List[Column]:
    f = x.field
    q = f.q
    xi = x.order[i]
    cols = []
    for j in range(q):
        a = x.order[(i + j) % q]
        cols.append((1, a, f.add(f.mul(a, a), xi)))
    return cols


@dataclass(frozen=True)
class InsertionScheme:
    """Value y placed as (0, 1, y) at each location L_j (before block B_j)."""

    field: FieldSpec
    assignment: Tuple[int, ...]  # assignment[j] = y at L_j


def location_exclusions(x: XOrder, j: int) -> Tuple[int, int]:
    """The two values that cannot be inserted at location L_j."""
    f = x.field
    q = f.q
    xj = x.order[j]
    return (f.add(xj, x.order[(j - 1) % q]), f.add(xj, x.order[(j + 1) % q]))


def insertion_scheme_even(x: XOrder) -> InsertionScheme:
    """Perfect matching of insertion values to locations, for even q >= 8.

    Deterministic augmenting-path matching: locations are processed in
    ascending index order and candidate values in ascending code order.
    Each location's search is a depth-first search with one set of values
    seen, on an explicit stack: a path can pass through about q locations,
    past the interpreter's recursion limit from GF(1024) on.  A frame
    resumes at the value after its last one, and a pointer array leads from
    any value to the least one not yet seen (path halving), so a search
    reads O(q) values, not a fresh scan from 0 per frame: O(q^2) in all.
    """
    f = x.field
    q = f.q
    if f.p != 2 or q < 8:
        raise ParameterError("insertion scheme applies to even q >= 8 only")
    excl = [set(location_exclusions(x, j)) for j in range(q)]
    match_of_value: Dict[int, int] = {}

    def augment(root: int) -> bool:
        # nxt[v] == v: v is unseen (q is the end); else the search for the
        # least unseen value >= v goes on from nxt[v]
        nxt = list(range(q + 1))
        # the open locations, each with the least value it may try next,
        # and the value each but the last has taken from the next one's owner
        stack = [[root, 0]]
        path: List[int] = []
        while stack:
            frame = stack[-1]
            j, y = frame
            while True:
                while nxt[y] != y:
                    nxt[y] = y = nxt[nxt[y]]
                if y not in excl[j]:
                    break
                y += 1
            if y == q:
                stack.pop()
                del path[-1:]
                continue
            frame[1] = nxt[y] = y + 1
            owner = match_of_value.get(y)
            if owner is None:
                match_of_value[y] = j
                for (k, _), v in zip(stack, path):
                    match_of_value[v] = k
                return True
            path.append(y)
            stack.append([owner, 0])
        return False

    for j in range(q):
        if not augment(j):
            raise ConstructionError(f"no perfect matching for insertions at L_{j}")
    assignment = [0] * q
    for y, j in match_of_value.items():
        assignment[j] = y
    return InsertionScheme(f, tuple(assignment))


@functools.lru_cache(maxsize=None)
def _layout(f: FieldSpec) -> Tuple[XOrder, Tuple[int, ...], Tuple[Column, ...]]:
    """The element order, the value inserted before each block, and the
    columns of H(q), built once per field (q not 2 or 4)."""
    x = canonical_xorder(f)
    if f.p == 2:
        ins = insertion_scheme_even(x).assignment
    else:
        ins = tuple(f.smul(2, v) for v in x.order)
    cols: List[Column] = []
    for i in range(f.q - 1, -1, -1):
        cols.append((0, 1, ins[i]))
        cols.extend(_block_columns(x, i))
    cols.append((0, 0, 1))
    return x, ins, tuple(cols)


def _full_columns(f: FieldSpec) -> Tuple[Column, ...]:
    if f.q == 2:
        return _H2_COLUMNS
    if f.q == 4:
        return _H4_COLUMNS
    return _layout(f)[2]


def build_h_full(f: FieldSpec) -> CodeMatrix:
    """The full 3 x (q^2+q+1) matrix H(q)."""
    return CodeMatrix.from_columns(f, _full_columns(f))


def _small_n_variant(
    f: FieldSpec, cols: Sequence[Column], n: int
) -> Optional[Tuple[CodeMatrix, PairCertificate]]:
    """Length-n layout with a second (0, 1, y) column forced in, and its certificate.

    Used when the plain truncation of H(q) contains no dependent triple
    (possible for small n, where the chosen columns form an arc): the triple
    {(0,1,y1), (0,1,y), (0,0,1)} restores condition 2.  The least y passing
    the full checker is taken.
    """
    if n - 3 < 2 or n - 3 >= len(cols):
        return None
    for y in f.elements():
        candidate = list(cols[: n - 3]) + [(0, 1, y), cols[n - 3], (0, 0, 1)]
        m = CodeMatrix.from_columns(f, candidate)
        cert = check_theorem_conditions(m, 3)
        if cert.ok:
            return m, cert
    return None


def build_h(f: FieldSpec, n: int) -> Tuple[CodeMatrix, PairCertificate]:
    """A 3 x n parity check passing all three pair-distance-5 conditions,
    and the certificate that says so."""
    q = f.q
    n_max = q * q + q + 1
    if not 5 <= n <= n_max:
        raise ParameterError(f"n must lie in [5, q^2+q+1] = [5, {n_max}], got {_named('n', n)}")
    full = _full_columns(f)
    e3: Column = (0, 0, 1)
    if q == 2:
        chosen = {5: _H2_N5, 6: _H2_N6, 7: full}[n]
    elif n % (q + 1) != 2:
        chosen = full[: n - 1] + (e3,)
    else:
        # appending (0,0,1) after a trailing (0,1,y) column would create the
        # dependent cyclic triple {(0,1,y), (0,0,1), (0,1,y')}
        chosen = full[:2] + (e3,) + full[2 : n - 1]
    m = CodeMatrix.from_columns(f, chosen)
    cert = check_theorem_conditions(m, 3)
    if cert.ok:
        return m, cert
    if cert.failed_condition == COND_DEPENDENT_SET_EXISTS:
        variant = _small_n_variant(f, full, n)
        if variant is not None:
            return variant
    raise ConstructionError(
        f"pair-distance-5 construction failed verification at q={q}, n={n}: "
        f"{cert.failed_condition} witness={cert.failing_set}"
    )


def construct_d5(f: FieldSpec, n: int):
    """Linear MDS (n, 5)_q symbol-pair code with a recomputed certificate."""
    h, cert = build_h(f, n)
    code = LinearCode(h)
    provenance: Dict[str, object] = {"construction": "d5"}
    if f.q in (2, 4):
        provenance["layout"] = "fixed-matrix"
    else:
        x, ins, _ = _layout(f)
        provenance["x_order"] = list(x.order)
        if f.p == 2:
            provenance["insertions"] = list(ins)
    return code, cert, provenance
