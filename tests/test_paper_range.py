"""Every route covers the lengths the paper claims for it.

The paper gives pair distance 5 for 5 <= n <= q^2 + q + 1 (d5), 6 for
6 <= n <= q^2 + 1 (the ovoid), and d + 2 for 7 <= d + 2 <= n <= N(q) - 3 on
a maximal elliptic curve of N(q) points.  Each sweep is sized to a few
seconds; larger fields are left to the CI floor job's `table` steps.
"""

import operator

import pytest

from pairmds import ecmds
from pairmds.d5 import build_h
from pairmds.d6 import coplanar, elliptic_quadric, order_points
from pairmds.ecmds import arrange, find_maximal_curve, n_max, window_check
from pairmds.gf import field_of_order

from reference import local_rearrange_by_bfs, switch_pass_by_resumming

PRIME_POWERS_TO_64 = [
    2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43, 47, 49, 53, 59,
    61, 64,
]


@pytest.mark.parametrize("q", [q for q in PRIME_POWERS_TO_64 if q <= 16])
def test_build_h_certifies_every_length(q):
    f = field_of_order(q)
    for n in range(5, q * q + q + 2):
        m, cert = build_h(f, n)
        assert (m.rows, m.cols) == (3, n) and cert.ok and cert.d_pair == 5, n


# the plane walk needs q >= 5 odd or q >= 8 even; GF(3) and GF(4) use fixed matrices
@pytest.mark.parametrize("q", [q for q in PRIME_POWERS_TO_64 if 5 <= q <= 43])
def test_order_points_at_every_seventh_length_and_the_full_length(q):
    o = elliptic_quadric(field_of_order(q))
    f = o.field
    ovoid = set(o.points)
    for n in [*range(6, q * q + 1, 7), q * q + 1]:
        pts = order_points(o, n)
        assert len(pts) == n and len(set(pts)) == n and set(pts) <= ovoid
        for i in range(n):
            assert not coplanar(f, *[pts[(i + t) % n] for t in range(4)]), (n, i)


def _elliptic_lengths(q):
    """The curve and every (n, k) that the CLI sends to the elliptic route
    over GF(q): n from q + 2 to N - 3, and every k with n - k >= 5."""
    f = field_of_order(q)
    return find_maximal_curve(f), [
        (n, k) for n in range(q + 2, n_max(f) - 2) for k in range(1, n - 4)
    ]


@pytest.mark.parametrize("q", [q for q in PRIME_POWERS_TO_64 if q >= 7])
def test_arrange_clears_every_window_at_every_elliptic_length(q):
    c, lengths = _elliptic_lengths(q)
    for n, k in lengths:
        a = arrange(c, n, k)
        assert a.n == n and window_check(a), (n, k)


@pytest.mark.parametrize("q", [q for q in PRIME_POWERS_TO_64 if q >= 7] + [193])
def test_greedy_repair_is_the_bfs_arrangement_wherever_the_bfs_finds_one(q, monkeypatch):
    c, lengths = _elliptic_lengths(q)
    if q == 193:
        lengths = [(213, 8)]  # a repair of two transpositions that the BFS also finds
    repairs = []
    descent = ecmds._local_rearrange

    def both(c, seq, k):
        before = list(seq)
        ok = descent(c, seq, k)
        repairs.append((k, before, local_rearrange_by_bfs(c, before, k), list(seq)))
        return ok

    monkeypatch.setattr(ecmds, "_local_rearrange", both)
    for n, k in lengths:
        arrange(c, n, k)
    for k, seq, bfs, out in repairs:
        assert bfs is None or out == bfs, (len(seq), k)
    if q == 193:
        ((_, seq, bfs, out),) = repairs
        assert sum(map(operator.ne, seq, bfs)) > 2  # more than one transposition


@pytest.mark.parametrize("q", [q for q in PRIME_POWERS_TO_64 if q >= 7])
def test_sliding_switch_pass_is_the_resumming_pass(q, monkeypatch):
    c, lengths = _elliptic_lengths(q)
    passes = []
    sliding = ecmds._switch_pass

    def both(c, seq, k):
        want = list(seq)
        switch_pass_by_resumming(c, want, k)
        sliding(c, seq, k)
        passes.append(seq == want)

    monkeypatch.setattr(ecmds, "_switch_pass", both)
    for n, k in lengths:
        arrange(c, n, k)
    assert passes and all(passes)
