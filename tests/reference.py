"""Independent reference implementations used only by the tests.

Each is a plain, direct computation of something the package computes
faster or more indirectly, kept here so that tests can compare the two.
"""

import functools
import itertools
import operator
from collections import deque

from pairmds.d5 import _block_columns, location_exclusions
from pairmds.d6 import DEFAULT_MAX_STATES, _schedule
from pairmds.ecmds import (
    EllipticCurve,
    _group,
    _point_index,
    _window_violations,
    ec_add,
    ec_points,
    n_max,
)
from pairmds.errors import ParameterError
from pairmds.linalg import CodeMatrix, det4, enumerate_codewords, null_space, rank_of_vectors
from pairmds.pairmetric import (
    COND_ANY_SMALL_INDEPENDENT,
    ROUTE_THEOREM,
    PairCertificate,
    _first_dependent_subset,
    check_theorem_conditions,
)


def pair_read(u):
    """Cyclic sequence of adjacent coordinate pairs ((u0,u1),...,(u_{n-1},u0))."""
    n = len(u)
    if n < 2:
        raise ValueError("pair read needs length >= 2")
    return tuple((u[i], u[(i + 1) % n]) for i in range(n))


def hamming_weight(u):
    """Number of nonzero coordinates."""
    return len(u) - u.count(0)


def ec_sum(c, pts):
    """The sum of a list of curve points, one validating ``ec_add`` at a time."""
    acc = None
    for p in pts:
        acc = ec_add(c, acc, p)
    return acc


def independent_points(f, coeffs):
    """The affine points, in ascending (x, y) order, by testing every (x, y)
    pair in the Weierstrass equation one field operation at a time."""
    a1, a2, a3, a4, a6 = coeffs
    pts = []
    for x in f.elements():
        x2 = f.mul(x, x)
        rhs = f.add(f.mul(x, x2), f.add(f.mul(a2, x2), f.add(f.mul(a4, x), a6)))
        for y in f.elements():
            lhs = f.add(f.mul(y, y), f.add(f.mul(a1, f.mul(x, y)), f.mul(a3, y)))
            if lhs == rhs:
                pts.append((x, y))
    return pts


def curve_candidates(f, a1_min=0):
    """The nonsingular curves of the maximal-curve search, in its order.

    Characteristic 2 scans (a1, a2, a3, a4, a6) in ascending order from
    a1 = a1_min, with a1 = 0 left out over GF(2^a) for odd a >= 3: those
    curves are supersingular, and none of them is maximal there.  Odd
    characteristic scans y^2 = x^3 + a2 x^2 + a4 x + a6, to which every
    curve is isomorphic.
    """
    elements = f.elements()
    if f.p == 2:
        a1s = range(1 if f.a >= 3 and f.a % 2 else a1_min, f.q)
        coeffs = itertools.product(a1s, elements, elements, elements, elements)
    else:
        coeffs = ((0, a2, 0, a4, a6) for a2, a4, a6 in itertools.product(elements, repeat=3))
    for c in coeffs:
        try:
            yield EllipticCurve(f, *c)
        except ParameterError:
            continue


def first_maximal_curve(f):
    """The first candidate with n_max(f) points, each candidate's points
    listed one by one."""
    target = n_max(f)
    return next(c for c in curve_candidates(f) if len(ec_points(c)) == target)


def transpose(m):
    return CodeMatrix(m.field, tuple(zip(*m.entries))) if m.entries else m


def columns_independent(m, idx):
    """True iff the selected columns have rank len(idx)."""
    seen = set()
    for j in idx:
        if not 0 <= j < m.cols:
            raise IndexError(f"column index {j} out of range")
        if j in seen:
            raise ValueError(f"duplicate column index {j}")
        seen.add(j)
    cols = [list(m.column(j)) for j in idx]
    return rank_of_vectors(m.field, cols) == len(idx)


def block_matrix(x, i):
    """The block B_i of the pair-distance-5 construction: columns
    (1, x_{i+j}, x_{i+j}^2 + x_i), j = 0..q-1."""
    f = x.field
    if not 0 <= i < f.q:
        raise ParameterError(f"block index {i} out of range for q={f.q}")
    return CodeMatrix.from_columns(f, _block_columns(x, i))


def gauss_jordan(f, rows):
    """In-place Gauss-Jordan reduction with first-nonzero pivoting; returns
    (rows, pivot column list)."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = f.inv(rows[r][c])
        if inv != 1:
            rows[r] = f.mul_rows(itertools.repeat(inv), rows[r])
        rr = rows[r]
        for i in range(nrows):
            if i != r and rows[i][c]:
                rows[i] = f.row_sub_mul(rows[i], rows[i][c], rr)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def null_space_by_gauss_jordan(m):
    """Basis of {v : m v^T = 0}: one vector per free column of the reduced
    row echelon form, 1 there and minus that column at the pivots."""
    f = m.field
    n = m.cols
    rows, pivots = gauss_jordan(f, [list(r) for r in m.entries])
    free = [c for c in range(n) if c not in set(pivots)]
    basis = []
    for fc in free:
        v = [0] * n
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = f.neg(rows[i][fc])
        basis.append(tuple(v))
    return CodeMatrix(f, tuple(basis))


def window_dets3(f, rows):
    """Determinants of the cyclic windows of three consecutive columns of
    the 3 x n matrix `rows`, entry i for columns i, i+1, i+2 (mod n).

    The closed form: the 2x2 minors of rows 1 and 2 on columns (j, j+1) and
    (j, j+2), then the cofactor expansion along row 0, one row kernel pass
    per product or sum.
    """
    r0, r1, r2 = (list(r) + list(r[:2]) for r in rows)
    mul = f.mul_rows

    def sub(u, v):
        return f.row_sub_mul(u, 1, v)

    m1 = sub(mul(r1, r2[1:]), mul(r1[1:], r2))
    m2 = sub(mul(r1, r2[2:]), mul(r1[2:], r2))
    return sub(mul(r0, m1[1:]), sub(mul(r0[1:], m2), mul(r0[2:], m1)))


def projector(f, pivot):
    """Projection from the point `pivot`, fused with normalisation, one
    vector at a time: the map from a normal form v (None for zero) to the
    normal form of v - v[p] * pivot without coordinate p, p the index of
    the pivot's leading 1 (None when that is zero).

    Reads the field's tables with one loop per element, split by how the
    field adds: mod p, XOR, the flat addition table or the digit loop.
    """
    p = pivot.index(1)
    tail = pivot[p + 1:]
    exp, log, q, P = f._exp, f._log, f.q, f.p
    q1 = q - 1
    if f.a == 1:
        kind = 0
    elif P == 2:
        kind = 1
    else:
        kind = 2 if f._add is not None else 3
        add, add_digits = f._add, f._add_digits
        tail_neg = [f._neg[c] for c in tail]

    def image(v):
        if v is None:
            return None
        a = v[p]
        if not a:
            return v[:p] + v[p + 1:]
        vt = v[p + 1:]
        if a != 1 or v.index(1) < p:
            return v[:p] + tuple(f.row_sub_mul(vt, a, tail))
        w = []
        s = -1
        if kind == 0:
            for x, c in zip(vt, tail):
                if x == c:
                    w.append(0)
                elif s < 0:
                    s = exp[q1 - log[(x - c) % P]]
                    w.append(1)
                else:
                    w.append((x - c) * s % P)
        elif kind == 1:
            for x, c in zip(vt, tail):
                if x == c:
                    w.append(0)
                elif s < 0:
                    s = q1 - log[x ^ c]
                    w.append(1)
                else:
                    w.append(exp[log[x ^ c] + s])
        else:
            for x, c in zip(vt, tail_neg):
                d = add[x * q + c] if kind == 2 else add_digits(x, c)
                if not d:
                    w.append(0)
                elif s < 0:
                    s = q1 - log[d]
                    w.append(1)
                else:
                    w.append(exp[log[d] + s])
        if s < 0:
            return None
        return v[:p] + tuple(w)

    return image


def theorem_certificate_by_search(h, d_h):
    """``pairmetric.check_theorem_conditions`` with condition 1 always
    decided by the dependent-set search, for h with d_h rows and at least
    d_h + 2 columns: the first dependent (d_h - 1)-set fails condition 1;
    without one, the checker's conditions 2 and 3 decide, as a column test
    that skips the search can change only condition 1's outcome."""
    f = h.field
    bad = _first_dependent_subset(f, h.columns(), d_h - 1)
    if bad is None:
        return check_theorem_conditions(h, d_h)
    return PairCertificate(
        q=f.q,
        n=h.cols,
        d_pair=d_h + 2,
        dim_exponent=h.cols - d_h,
        route=ROUTE_THEOREM,
        ok=False,
        failed_condition=COND_ANY_SMALL_INDEPENDENT,
        failing_set=bad,
    )


def insertion_assignment_recursive(x):
    """The insertion values of ``d5.insertion_scheme_even``, by the
    recursive augmenting-path matching: locations in ascending order,
    values in ascending code order, one set of values seen per location.
    Nests about q calls deep."""
    q = x.field.q
    excl = [set(location_exclusions(x, j)) for j in range(q)]
    match_of_value = {}

    def augment(j, seen):
        for y in range(q):
            if y in excl[j] or y in seen:
                continue
            seen.add(y)
            owner = match_of_value.get(y)
            if owner is None or augment(owner, seen):
                match_of_value[y] = j
                return True
        return False

    for j in range(q):
        if not augment(j, set()):
            raise AssertionError(f"no perfect matching for insertions at L_{j}")
    assignment = [0] * q
    for y, j in match_of_value.items():
        assignment[j] = y
    return tuple(assignment)


def insertion_assignment_by_stack(x):
    """The insertion values of ``d5.insertion_scheme_even``, by the same
    augmenting-path matching on an explicit stack, each frame scanning the
    values from 0 and skipping the excluded and the seen ones: O(q) reads
    per frame, but no recursion depth, so it runs at every even q."""
    q = x.field.q
    excl = [set(location_exclusions(x, j)) for j in range(q)]
    match_of_value = {}

    def augment(root):
        seen = set()
        # the open locations, each with its values left to try, and the
        # value each but the last has taken from the next one's owner
        stack = [(root, iter(range(q)))]
        path = []
        while stack:
            j, values = stack[-1]
            y = next((y for y in values if y not in excl[j] and y not in seen), None)
            if y is None:
                stack.pop()
                del path[-1:]
                continue
            seen.add(y)
            owner = match_of_value.get(y)
            if owner is None:
                match_of_value[y] = j
                for (k, _), v in zip(stack, path):
                    match_of_value[v] = k
                return True
            path.append(y)
            stack.append((owner, iter(range(q))))
        return False

    for j in range(q):
        if not augment(j):
            raise AssertionError(f"no perfect matching for insertions at L_{j}")
    assignment = [0] * q
    for y, j in match_of_value.items():
        assignment[j] = y
    return tuple(assignment)


def orthogonal(f, us, vectors):
    """For each u in `us`, the list over `vectors` of whether u . v is 0, by
    the field's vanishing-product kernel in one call: the vectors' columns
    packed once, then one pass over them per u."""
    tables, stride = f.pack_columns(vectors)
    return list(f.vanishing(us, tables, len(vectors), stride))


def secant_planes_by_normals(f, pts, A, B):
    """The q + 1 planes of the pencil through line AB, each with its points
    from pts in ascending order.  The normals are w1 + c w2 over ascending c,
    then w2, where w1, w2 is ``null_space``'s basis of the planes through A
    and B; a point is on a plane when the vanishing-product kernel says so."""
    w1, w2 = null_space(CodeMatrix.from_rows(f, [list(A), list(B)])).entries
    normals = [f.add_rows(w1, f.mul_rows([c] * 4, w2)) for c in f.elements()]
    normals.append(w2)
    return [sorted(itertools.compress(pts, on)) for on in orthogonal(f, normals, pts)]


def order_points_by_det4(o, n):
    """The ovoid ordering with every window tested by one 4x4 determinant:
    the depth-first walk of ``d6.order_points`` over the same slot schedule
    and state budget, as a recursion and without pencil keys.  None when the
    budget runs out or the search tree is exhausted."""
    f = o.field
    slots = _schedule(f.q, n, f.p == 2)
    proper = [[p for p in plane if p not in (o.A, o.B)] for plane in o.planes]
    seq, used, budget = [], set(), [DEFAULT_MAX_STATES]

    def fits(p):
        t = len(seq)
        windows = [seq[-3:] + [p]] if t >= 3 else []
        if t == n - 1:
            windows += [seq[-2:] + [p, seq[0]], [seq[-1], p] + seq[:2], [p] + seq[:3]]
        return all(det4(f, w) != 0 for w in windows)

    def walk():
        if len(seq) == n:
            return True
        slot = slots[len(seq)]
        for p in [o.A] if slot == "A" else [o.B] if slot == "B" else proper[slot]:
            if p in used or not fits(p):
                continue
            budget[0] -= 1
            if budget[0] < 0:
                return False
            seq.append(p)
            used.add(p)
            if walk():
                return True
            used.discard(seq.pop())
        return False

    return seq if walk() else None


def min_hamming_distance_bruteforce(code):
    """Smallest Hamming weight over all nonzero codewords, by full
    enumeration: n minus the largest zero count, taken in C."""
    words = enumerate_codewords(code)
    next(words)  # the zero word
    return code.n - max(map(tuple.count, words, itertools.repeat(0)))


def dot(f, u, v):
    """The sum of u_t * v_t over the shorter length, one product and one
    addition at a time: mod p in prime fields, XOR in binary fields, and
    the field's addition table or digit loop in odd-extension fields."""
    if f.a == 1:
        return sum(map(operator.mul, u, v)) % f.p
    prods = [f.mul(x, y) for x, y in zip(u, v) if x and y]
    if f.p == 2:
        return functools.reduce(operator.xor, prods, 0)
    s = 0
    for x in prods:
        s = f.add(s, x)
    return s


def subset_sum_count_by_size(a):
    """N(k, O, D) by dynamic programming with one list per subset size and
    one Python step per (point, size, group element).

    Point i (from 0) updates only the sizes it can change: the i points
    before it fill sizes up to i, and a size below k - (n - i) + 1 can no
    longer reach k.
    """
    g = _group(a.curve)
    index = _point_index(a.curve)
    ng = len(index)
    k = a.k
    n = len(a.points)
    counts = [[0] * ng for _ in range(k + 1)]
    counts[0][0] = 1  # index 0 is O
    for i, pi in enumerate(index[p] for p in a.points):
        row = g.add[pi]
        for size in range(min(k, i + 1), max(0, k - (n - i)), -1):
            prev = counts[size - 1]
            cur = counts[size]
            for h in range(ng):
                cnt = prev[h]
                if cnt:
                    cur[row[h]] += cnt
    return counts[k][0]


def local_rearrange_by_bfs(c, seq, k, attempts=10_000):
    """The breadth-first search over adjacent transpositions that the greedy
    descent replaced, as it stood: it charges its budget when it queues a
    state, so at large k it can stop before checking all of its own
    depth-1 states, and returns None then."""
    n = len(seq)
    start = tuple(seq)
    seen = {start}
    queue = deque([start])
    spent = 0
    while queue and spent < attempts:
        cur = queue.popleft()
        lst = list(cur)
        violations = _window_violations(c, lst, k)
        if not violations:
            return lst
        first = violations[0]
        touched = [(first + t) % n for t in range(-1, k)]
        for i in touched:
            j = (i + 1) % n
            lst[i], lst[j] = lst[j], lst[i]
            nxt = tuple(lst)
            lst[i], lst[j] = lst[j], lst[i]
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
                spent += 1
    return None


def local_rearrange_by_resumming(c, seq, k):
    """The greedy descent of ``_local_rearrange``, with every k-window summed
    from scratch through the group table for each candidate transposition;
    in place.  A step tries the first zero window's k + 1 transpositions,
    (first + t) % n with its successor for t = -1 ... k - 1, in order, and
    takes the first that clears every window, else the first that leaves
    fewer; False when none leaves fewer."""
    add = _group(c).add
    index = _point_index(c)
    n = len(seq)

    def zero_windows():
        idx = [index[p] for p in seq]
        starts = []
        for start in range(n):
            s = 0
            for t in range(start, start + k):
                s = add[s][idx[t % n]]
            if s == 0:
                starts.append(start)
        return starts

    def swap(i):
        j = (i + 1) % n
        seq[i], seq[j] = seq[j], seq[i]

    while zeros := zero_windows():
        best = None
        for i in ((zeros[0] + t) % n for t in range(-1, k)):
            swap(i)
            after = len(zero_windows())
            swap(i)
            if not after:
                best = i
                break
            if best is None and after < len(zeros):
                best = i
        if best is None:
            return False
        swap(best)
    return True


def switch_pass_by_resumming(c, seq, k):
    """One SWITCH pass as it stood before its window sum slid: every
    k-window summed from scratch, O(n k) per pass, on the sequence as the
    earlier swaps left it; in place."""
    g = _group(c)
    add = g.add
    idx = [_point_index(c)[p] for p in seq]
    n = len(seq)
    for start in range(n):
        s = 0
        for t in range(start, start + k):
            s = add[s][idx[t % n]]
        if s != 0:
            continue
        last = (start + k - 1) % n
        if last < start:  # wrapped window: push its tail forward
            i, j = last, (last + 1) % n
        else:
            i, j = (start - 1) % n, start
        seq[i], seq[j] = seq[j], seq[i]
        idx[i], idx[j] = idx[j], idx[i]
