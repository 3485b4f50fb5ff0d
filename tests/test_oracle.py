"""The brute-force oracles are trusted everywhere else, so this file holds
them to an even simpler standard: tiny pure-Python re-enumerations, internal
identities, and honest budget refusals.
"""

import itertools
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from commucount import oracle
from commucount.errors import BudgetExceeded, NotPrime, UnsupportedDimension
from commucount.oracle import (
    _BLOCK_KEYS,
    MeetInMiddle3,
    _count_range,
    _doubly_null,
    _parallel_over_a,
    _residue_dtype,
    _residue_kernel,
    _residue_solutions,
    WorkBudget,
    a_rows,
    brute_commuting_count,
    brute_degenerate_padic,
    brute_padic_solutions,
    brute_r_table,
    brute_valuation_classes,
    join_states,
    resolve_threads,
)
from commucount.count2 import count_commuting_2x2
from commucount.verify import _padic_gate
from test_rank3 import traced_peak_mb


def box_by_product(n, k):
    """Every k-tuple over [-n, n] in lexicographic order, by itertools."""
    return [list(t) for t in itertools.product(range(-n, n + 1), repeat=k)]


def test_a_rows_shape_and_order():
    """The tuples of k = 2, the 2x2 A and the halves of 2x2 B (k = 4), and
    the halves of 3x3 B (k = 5): the whole box, and a scattered subset."""
    for n, k in itertools.product(range(3), (2, 4, 5)):
        want = box_by_product(n, k)
        assert a_rows(n, np.arange(len(want)), k).tolist() == want
        ids = np.arange(len(want))[::-7]
        assert a_rows(n, ids, k).tolist() == [want[i] for i in ids]


def test_brute_2x2_against_plain_loops():
    """Re-derive c_2(0) and c_2(1) with nothing but range() and lists."""

    def mul(x, y):
        return tuple(
            tuple(sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2))
            for i in range(2)
        )

    for n, want in ((0, 1), (1, 817)):
        axis = range(-n, n + 1)
        mats = [((a, b), (c, d)) for a in axis for b in axis for c in axis for d in axis]
        expected = sum(1 for A in mats for B in mats if mul(A, B) == mul(B, A))
        assert expected == want
        assert brute_commuting_count(2, n) == expected


def test_brute_2x2_pinned_before_the_filter_first_kernel():
    # Recorded from the kernel that tested all four entries on every pair.
    assert [brute_commuting_count(2, n) for n in range(5)] == [1, 817, 12465, 68673, 254657]


def tuples_over(vals, k):
    """Every k-tuple over `vals`, one row per coordinate."""
    return np.array(np.meshgrid(*[vals] * k, indexing="ij")).reshape(k, -1)


def test_brute_counts_at_n0():
    # Only the zero matrix: it commutes with itself.
    assert brute_commuting_count(2, 0) == 1
    assert brute_commuting_count(3, 0) == 1


def test_unsupported_dimension():
    with pytest.raises(UnsupportedDimension):
        brute_commuting_count(4, 1)
    with pytest.raises(ValueError):
        brute_commuting_count(2, -1)


def test_budget_refusals_are_typed_and_informative():
    with pytest.raises(BudgetExceeded) as exc:
        brute_commuting_count(2, 4, WorkBudget(1000))
    # Every A, 9^4, times both halves of the join's B tabulation, 2 * 9^2.
    assert exc.value.states == 2 * 9**6
    assert exc.value.max_states == 1000
    with pytest.raises(BudgetExceeded):
        brute_commuting_count(3, 2, WorkBudget(10**6))
    with pytest.raises(BudgetExceeded):
        brute_r_table(100, WorkBudget(10**6))
    with pytest.raises(BudgetExceeded):
        brute_padic_solutions(2, 5, WorkBudget(10**6))


def test_join_states_accounting():
    """The one charge equals the two formulas it replaced: every A times
    both halves of the B tabulation, side^4 * 2 * side^2 at d = 2 and
    side^9 * (side^5 + side^4) at d = 3."""
    for n in range(5):
        side = 2 * n + 1
        assert join_states(n, 2) == side**4 * 2 * side**2
        assert join_states(n, 3) == side**9 * (side**5 + side**4)


def commuting_by_scan(a_flat, n):
    """Every B in the box [-n, n]^9 that commutes with A, as flattened rows
    in lexicographic order, by a literal vectorized AB == BA scan over all
    (2n+1)^9 B, a slice of fixed b1 at a time.  int16 holds every entry of
    AB and BA, at most 3n^2 in absolute value."""
    assert 3 * n * n < 2**15
    rest = a_rows(n, np.arange((2 * n + 1) ** 8), 8).astype(np.int16)
    a = np.asarray(a_flat, dtype=np.int16).reshape(3, 3)
    found = []
    for b1 in range(-n, n + 1):
        bs = np.concatenate([np.full((len(rest), 1), b1, dtype=np.int16), rest], axis=1)
        mats = bs.reshape(-1, 3, 3)
        commutes = np.einsum("ij,bjk->bik", a, mats) == np.einsum("bij,jk->bik", mats, a)
        found.append(bs[commutes.all(axis=(1, 2))])
    return np.concatenate(found)


def commuting_counts_by_scan(a_flats, n):
    """For each A, the number of B in the box [-n, n]^9 with AB == BA."""
    return [len(commuting_by_scan(a_flat, n)) for a_flat in a_flats]


def test_meet_in_middle_partners_match_direct_scan():
    """For a sample of A's at N = 1, the meet-in-the-middle join must return
    exactly the B's a literal AB == BA scan finds."""
    mim = MeetInMiddle3(1)
    rng = np.random.default_rng(7)
    sample = rng.integers(0, 3**9, size=12)
    for a_id in sample:
        a_flat = a_rows(1, [int(a_id)])[0]
        direct = {tuple(b) for b in commuting_by_scan(a_flat, 1).tolist()}
        partners = {tuple(row.tolist()) for row in mim.partners_for_a(a_flat)}
        assert partners == direct
        assert mim.count_for_a(a_flat) == len(direct)


def test_meet_in_middle_matches_direct_scan_at_n2():
    """At N = 2 against a literal scan of all 5^9 B: a random A, two A with
    a five-dimensional centralizer (diag(1, 1, -2) and the all-ones
    matrix), whose partners the join must find among many half-key
    collisions, and a scalar A, which commutes with every B and is checked
    by count only."""
    mim = MeetInMiddle3(2)
    rng = np.random.default_rng(17)
    a = np.array([
        rng.integers(-2, 3, 9),
        [1, 0, 0, 0, 1, 0, 0, 0, -2],
        [1] * 9,
        [-2, 0, 0, 0, -2, 0, 0, 0, -2],
    ])
    scans = [commuting_by_scan(a_flat, 2) for a_flat in a]
    counts = [len(scan) for scan in scans]
    assert counts[1] == 5**5 and counts[3] == 5**9
    assert mim.count_block(a).tolist() == counts
    for a_flat, scan in zip(a[:3], scans):
        direct = {tuple(b) for b in scan.tolist()}
        assert {tuple(b) for b in mim.partners_for_a(a_flat).tolist()} == direct


def _literal_commutator(a, b, d):
    """AB - BA of two row-major flattened d x d matrices, in Python ints."""
    return [
        [sum(a[d * i + k] * b[d * k + j] - b[d * i + k] * a[d * k + j] for k in range(d))
         for j in range(d)]
        for i in range(d)
    ]


def check_keys_unpack(mim, d, a, positions_per_block=None, seed=0):
    """Every key of row r is r * key_span + 2 * v + h, h = 0 on half 1 and
    1 on half 2, and the base-key_base(n, d) digit e of v, less
    key_base(n, d) // 2, is row-major entry e of [A, B1] for half 1, where
    B1 holds the half's first entries of B and zeros, or of -[A, B2] for
    half 2, where B2 holds its last ones; the (d, d) entry is not packed.
    Checked with Python ints on every key, or on the first and last 100
    and a random sample of `positions_per_block` keys a block."""
    base = MeetInMiddle3.key_base(mim.n, d)
    rng = np.random.default_rng(seed)
    w1, split = len(mim.h1), mim.h1.shape[1]
    for lo in range(0, len(a), mim.max_rows):
        block = a[lo : lo + mim.max_rows]
        keys, perm = mim._sorted_keys(block, order=True)
        assert (np.diff(keys) >= 0).all()
        positions = range(len(keys))
        if positions_per_block is not None:
            ends = [*range(100), *range(len(keys) - 100, len(keys))]
            positions = [*ends, *rng.choice(len(keys), positions_per_block, replace=False)]
        for pos in positions:
            key, col = int(keys[pos]), int(perm[pos])
            row, rest = divmod(key, mim.key_span)
            assert row == pos // mim.width
            value, half = divmod(rest, 2)
            digits = []
            for _ in range(d * d - 1):
                value, digit = divmod(value, base)
                digits.append(digit - base // 2)
            assert value == 0
            b = [0] * (d * d)
            if col < w1:
                assert half == 0
                b[:split] = mim.h1[col].tolist()
                sign = 1
            else:
                assert half == 1
                b[split:] = mim.h2[col - w1].tolist()
                sign = -1
            c = _literal_commutator(block[row].tolist(), b, d)
            assert digits == [sign * c[e // d][e % d] for e in range(d * d - 1)]


@pytest.mark.parametrize(
    "d, n",
    [(3, n) for n in range(5)] + [(2, n) for n in (*range(5), 11, 12)],
    ids=[str(n) for n in range(5)] + [f"2x2-{n}" for n in (*range(5), 11, 12)],
)
def test_keys_unpack_to_the_half_commutators(d, n):
    """check_keys_unpack on random blocks with the zero and a scalar A, on
    every key at d = 2 up to n = 4 and up to n = 2 at d = 3, on 3200 keys
    a block at d = 3, n = 3, 4, and on 2200 at d = 2, n = 11 and 12, the
    last int32 and the first int64 key width."""
    mim = MeetInMiddle3(n, d)
    rng = np.random.default_rng(100 + n)
    a = rng.integers(-n, n + 1, (5, d * d))
    a[0] = 0
    a[1] = n * np.eye(d, dtype=np.int64).ravel()
    sample = 3000 if d == 3 and n >= 3 else 2000 if n > 4 else None
    check_keys_unpack(mim, d, a, sample, seed=n)


def commuting_2x2_by_scan(a_flat, n):
    """The number of B in the box [-n, n]^4 with AB == BA, by a literal scan
    of every B."""
    bs = a_rows(n, np.arange((2 * n + 1) ** 4), 4).reshape(-1, 2, 2)
    a = np.asarray(a_flat).reshape(2, 2)
    return int((a @ bs == bs @ a).all(axis=(1, 2)).sum())


@pytest.mark.parametrize("n", [11, 12])
def test_count_block_at_both_key_widths(n):
    """At the last int32 and the first int64 key width, count_block on one
    block equals a literal AB == BA scan of every B, for A with centralizers
    of dimension 4 (scalars) and 2, random ones and A with entries +-n.
    The keys of the last two reach 7/8 of the key span, past 2^31 at
    n = 12."""
    mim = MeetInMiddle3(n, d=2)
    assert mim.key_span <= 2**31 if n == 11 else mim.key_span > 2**31
    assert mim.key_dtype == (np.int32 if n == 11 else np.int64)
    rng = np.random.default_rng(n)
    a = np.concatenate([
        [[0, 0, 0, 0], [n, 0, 0, n], [0, 1, 0, 0], [n, -n, -n, n], [-n, n, n, -n + 1]],
        rng.integers(-n, n + 1, (4, 4)),
        [[n, n, n, -n], [n, -n, n, -n]],
    ])
    assert len(a) <= mim.max_rows
    assert mim.count_block(a).tolist() == [commuting_2x2_by_scan(a_flat, n) for a_flat in a]


def shared_runs_reference(keys):
    """_shared_runs by two binary searches of every shared value."""
    last1 = np.flatnonzero((keys[:-1] ^ keys[1:]) == 1)
    return (
        last1,
        np.searchsorted(keys, keys[last1], "left"),
        np.searchsorted(keys, keys[last1 + 1], "right"),
    )


@st.composite
def half_keys(draw):
    """Sorted keys 2v (half 1) and 2v + 1 (half 2): each drawn value v
    with zero to three keys on each half, all shifted by an even offset."""
    values = sorted(draw(st.sets(st.integers(0, 40), min_size=1, max_size=12)))
    runs = draw(st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        min_size=len(values), max_size=len(values),
    ))
    offset = 2 * draw(st.integers(0, 2**40))
    keys = [offset + 2 * v + h for v, run in zip(values, runs) for h in (0, 1) for _ in range(run[h])]
    return np.array(keys, dtype=np.int64)


@given(half_keys())
@example(np.array([0, 1]))
@example(np.array([6, 6, 6, 7, 7]))
@example(np.array([0, 0, 1, 4, 9, 9, 10, 11, 11]))
@example(np.array([0, 1, 1, 2, 4, 5]))
@example(np.array([2, 3, 8, 8, 9]))
def test_shared_runs_equal_the_binary_searches(keys):
    """The neighbour test finds the same runs as two searches, on runs of
    one and of more keys on either half, including runs that start at
    index 0 or end at the last index."""
    got = MeetInMiddle3._shared_runs(keys)
    want = shared_runs_reference(keys)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_2x2_join_at_the_largest_packable_n():
    """Full enumeration at n = 456 is out of reach, so the join is fed
    matrices whose centralizers are known: the zero matrix and I commute
    with every B, E12 and n [[1, -1], [-1, 1]] with the (2n+1)^2 B in the
    box spanned by I and themselves.  The keys of A with entries +-n, the
    largest the packing holds, are unpacked with Python ints; n = 457 is
    refused."""
    n = 456
    side = 2 * n + 1
    mim = MeetInMiddle3(n, d=2)
    assert mim.max_rows == 1 and mim.key_span <= 2**63
    a = np.array([[0, 0, 0, 0], [1, 0, 0, 1], [0, 1, 0, 0], [n, -n, -n, n]])
    counts = [int(mim.count_block(row[None])[0]) for row in a]
    assert counts == [side**4, side**4, side**2, side**2]
    extreme = np.array([[n, -n, -n, n], [-n, n, n, -n + 1]])
    check_keys_unpack(mim, 2, extreme, 300)
    with pytest.raises(ValueError, match="n=457 overflows"):
        MeetInMiddle3(457, d=2)


@pytest.mark.parametrize(
    "d, n, lo, rows",
    [(3, 1, 0, 40), (3, 1, 9000, 300), (3, 2, 123456, 600), (2, 4, 0, 9**4)],
    ids=["1-0-40", "1-9000-300", "2-123456-600", "2x2-4-0-6561"],
)
def test_block_join_matches_per_a_counts(d, n, lo, rows):
    """The one block driver, _count_range, at both d: per-block counts equal
    per-A counts, and sub-ranges cut off the block boundaries sum to the
    range's count.  The 2x2 range is the whole box, so its count is also
    the closed form's."""
    mim = MeetInMiddle3(n, d)
    if n == 2 or d == 2:
        assert mim.max_rows < rows  # the range spans more than one block
    a = a_rows(n, np.arange(lo, lo + rows), d * d)
    per_a = [mim.count_for_a(a_flat) for a_flat in a]
    blocks = np.concatenate(
        [mim.count_block(a[s : s + mim.max_rows]) for s in range(0, rows, mim.max_rows)]
    )
    assert blocks.tolist() == per_a
    assert _count_range(n, lo, lo + rows, d) == sum(per_a)
    cuts = sorted({0, 1, min(mim.max_rows + 3, rows), rows // 2, rows})
    spans = list(zip(cuts, cuts[1:]))
    parts = [_count_range(n, lo + c, lo + c_next, d) for c, c_next in spans]
    assert parts == [sum(per_a[c:c_next]) for c, c_next in spans]
    if d == 2:
        assert sum(parts) == brute_commuting_count(2, n) == count_commuting_2x2(n)
    if n == 1:
        assert per_a[::10] == commuting_counts_by_scan(a[::10], 1)


def test_2x2_count_runs_in_this_process(monkeypatch):
    """No pool for the 2x2 count, whatever the thread count."""

    def no_workers(*args):
        raise AssertionError("the 2x2 count started a pool")

    monkeypatch.setattr(oracle, "_parallel_over_a", no_workers)
    assert brute_commuting_count(2, 2, threads=2) == count_commuting_2x2(2)


def test_block_cut_short_by_the_key_shift_limit():
    """At N = 4 a row of keys spans 2 * 193^8, so only two rows fit below
    2^63, far fewer than the block size that memory would allow."""
    mim = MeetInMiddle3(4)
    width = len(mim.h1) + len(mim.h2)
    assert mim.max_rows == 2**63 // mim.key_span == 2
    assert mim.max_rows < _BLOCK_KEYS // width
    assert mim.max_rows * mim.key_span <= 2**63
    rng = np.random.default_rng(19)
    lo = int(rng.integers(0, 9**9 - 5))
    a = a_rows(4, np.arange(lo, lo + 5))
    a[1] = 0  # the zero matrix commutes with all 9^9 B
    per_a = [mim.count_for_a(a_flat) for a_flat in a]
    assert per_a[1] == 9**9
    blocks = [mim.count_block(a[s : s + 2]) for s in range(0, 5, 2)]
    assert np.concatenate(blocks).tolist() == per_a
    row, i1, i2 = mim.partner_pairs(a[2:4])
    for r in (0, 1):
        bs = np.concatenate([mim.h1[i1], mim.h2[i2]], axis=1)[row == r]
        got = {tuple(b) for b in bs.tolist()}
        assert got == {tuple(b) for b in mim.partners_for_a(a[2 + r]).tolist()}
    with pytest.raises(ValueError):
        mim.count_block(a[:3])


def test_partner_pairs_of_a_block_match_per_a_partners():
    mim = MeetInMiddle3(1)
    a = a_rows(1, np.arange(5000, 5400))
    row, i1, i2 = mim.partner_pairs(a)
    bs = np.concatenate([mim.h1[i1], mim.h2[i2]], axis=1)
    for r in range(0, 400, 13):
        want = {tuple(b) for b in mim.partners_for_a(a[r]).tolist()}
        assert {tuple(b) for b in bs[row == r].tolist()} == want
    assert np.bincount(row, minlength=400).tolist() == mim.count_block(a).tolist()


def _sum_range(n, lo, hi):
    """The sum of the range's ids, and 1 for the part."""
    return np.array([sum(range(lo, hi)), 1])


def _interrupted_range(n, lo, hi):
    if lo > 0:
        raise KeyboardInterrupt
    return 0


def test_parallel_over_a_sums_the_parts():
    assert _parallel_over_a(_sum_range, 1, 3).tolist() == [sum(range(3**9)), 3]
    assert _parallel_over_a(_sum_range, 1, 1).tolist() == [sum(range(3**9)), 1]
    assert _parallel_over_a(_sum_range, 0, 3).tolist() == [0, 1]


def test_interrupt_in_a_worker_terminates_the_pool(time_limit):
    with time_limit(60), pytest.raises(KeyboardInterrupt):
        _parallel_over_a(_interrupted_range, 1, 2)
    assert multiprocessing.active_children() == []


def test_meet_in_middle_rejects_overflowing_n():
    with pytest.raises(ValueError):
        MeetInMiddle3(10**9)
    # 2 * 193^8 <= 2^63 < 2 * 301^8: n = 4 is the largest box the keys pack.
    assert MeetInMiddle3.key_base(4) == 193
    with pytest.raises(ValueError, match="n=5 overflows"):
        MeetInMiddle3.key_base(5)


@pytest.mark.parametrize("d, n", [(3, 5), (2, 457)])
def test_key_packing_is_checked_before_the_budget(monkeypatch, d, n):
    """An n past the key packing is refused in this process, before the
    budget is charged (the default one would refuse both) and before any
    worker starts, however large the budget."""

    def no_workers(*args):
        raise AssertionError("the enumeration started")

    monkeypatch.setattr(oracle, "_parallel_over_a", no_workers)
    for budget in (None, WorkBudget(10**40)):
        with pytest.raises(ValueError, match=f"n={n} overflows"):
            brute_commuting_count(d, n, budget)


def test_a_batch_is_lexicographic():
    """The 3x3 A, at the default k = 9."""
    assert a_rows(1, np.arange(3**9)).tolist() == box_by_product(1, 9)


# --- p-adic oracles ------------------------------------------------------------


def test_padic_solution_counts_tiny():
    # p = 2, n = 1: 64 triples-of-pairs; count the system by hand.
    direct = 0
    for x2 in range(2):
        for x3 in range(2):
            for x4 in range(2):
                for y2 in range(2):
                    for y3 in range(2):
                        for y4 in range(2):
                            if (
                                (x2 * y3 - x3 * y2) % 2 == 0
                                and (x2 * y4 - x4 * y2) % 2 == 0
                                and (x3 * y4 - x4 * y3) % 2 == 0
                            ):
                                direct += 1
    assert brute_padic_solutions(2, 1) == direct == 22


def test_padic_rejects_bad_params():
    with pytest.raises(NotPrime):
        brute_padic_solutions(6, 1)
    with pytest.raises(ValueError):
        brute_padic_solutions(2, 0)


def test_degenerate_is_a_subset_count():
    for p, n in ((2, 1), (3, 1), (2, 2)):
        assert brute_degenerate_padic(p, n) <= brute_padic_solutions(p, n)


def _residue_oracles_by_loops(p, n):
    """The three residue oracles' values from one pure-Python six-fold loop:
    (solutions, degenerate solutions, {h: solutions with min valuation h})."""
    q = p**n

    def v(x):
        k = 0
        while k < n and x % p ** (k + 1) == 0:
            k += 1
        return k

    total = degenerate = 0
    classes = dict.fromkeys(range(n + 1), 0)
    r = range(q)
    for x2 in r:
        for x3 in r:
            for x4 in r:
                for y2 in r:
                    for y3 in r:
                        for y4 in r:
                            if (
                                (x2 * y3 - x3 * y2) % q
                                or (x2 * y4 - x4 * y2) % q
                                or (x3 * y4 - x4 * y3) % q
                            ):
                                continue
                            total += 1
                            degenerate += (x2 * y3) % q == 0 and (x3 * y2) % q == 0
                            classes[min(map(v, (x2, x3, x4, y2, y3, y4)))] += 1
    return total, degenerate, classes


@pytest.mark.parametrize("p, n", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_residue_oracles_against_six_fold_loops(p, n):
    total, degenerate, classes = _residue_oracles_by_loops(p, n)
    assert brute_padic_solutions(p, n) == total
    assert brute_degenerate_padic(p, n) == degenerate
    assert brute_valuation_classes(p, n).classes == classes


def _residue_pairs_by_loops(q):
    """The (i, j) of every solution mod q by a pure-Python six-fold loop,
    with i and j the lexicographic ids of (x2, x3, x4) and (y2, y3, y4)."""
    r = range(q)
    return {
        ((x2 * q + x3) * q + x4, (y2 * q + y3) * q + y4)
        for x2, x3, x4, y2, y3, y4 in itertools.product(r, repeat=6)
        if (x2 * y3 - x3 * y2) % q == 0
        and (x2 * y4 - x4 * y2) % q == 0
        and (x3 * y4 - x4 * y3) % q == 0
    }


def _solution_set(p, n):
    """The oracle's solutions as a set of (i, j), each yielded once."""
    _, solutions = _residue_solutions(p, n, WorkBudget())
    pairs = [pair for i, j in solutions for pair in zip(i.tolist(), j.tolist())]
    assert len(pairs) == len(set(pairs))
    return set(pairs)


@pytest.mark.parametrize("p, n", [(2, 2), (5, 1)])
def test_residue_solutions_are_the_pairs_of_a_six_fold_loop(p, n):
    """The same pairs, not only the same number of them."""
    assert _solution_set(p, n) == _residue_pairs_by_loops(p**n)


@pytest.mark.parametrize("p, n", [(2, 2), (3, 1), (7, 1), (3, 2), (2, 3)])
def test_residue_counts_hold_with_tiny_tiles(monkeypatch, p, n):
    """Tiles of 50 cells split both stages into many tiles: at q = 4 and 3
    several whole rows each, at q = 7 one row each, and at q = 9 and 8 rows
    of the q^2-wide grids in runs of 50.  A boundary that dropped or
    repeated a pair would change a count."""
    monkeypatch.setattr(oracle, "_BLOCK_PAIRS", 50)
    total, degenerate, classes = PINNED_RESIDUE_COUNTS[p, n]
    assert brute_padic_solutions(p, n) == total
    assert brute_degenerate_padic(p, n) == degenerate
    assert brute_valuation_classes(p, n).classes == dict(enumerate(classes))


def test_residue_oracle_at_q31_holds_little_memory():
    """The survivors of the first cross product are expanded a tile at a
    time: in one tile per stage, q = 31 took 142 MB, and the kernel that
    tested every pair 9.0 MB."""
    brute_padic_solutions(2, 1)
    assert traced_peak_mb(lambda: brute_padic_solutions(31, 1)) < 12


# Recorded from the kernel that tested all three cross products on every
# pair: (solutions, degenerate solutions, valuation classes) on every modulus
# of criterion 6's sweep with q^6 <= 10^7.
PINNED_RESIDUE_COUNTS = {
    (2, 1): (22, 20, [21, 1]),
    (2, 2): (400, 304, [336, 63, 1]),
    (2, 3): (6784, 4032, [5376, 1344, 63, 1]),
    (3, 1): (105, 81, [104, 1]),
    (3, 2): (9153, 4617, [8424, 728, 1]),
    (5, 1): (745, 425, [744, 1]),
    (7, 1): (2737, 1225, [2736, 1]),
    (11, 1): (15961, 4961, [15960, 1]),
    (13, 1): (30745, 8281, [30744, 1]),
}


def test_residue_oracles_pinned_before_the_filter_first_kernel():
    gate = [(p, n) for p, n in _padic_gate(10**9) if p ** (6 * n) <= 10**7]
    assert sorted(gate) == sorted(PINNED_RESIDUE_COUNTS)
    for (p, n), (total, degenerate, classes) in PINNED_RESIDUE_COUNTS.items():
        assert brute_padic_solutions(p, n) == total
        assert brute_degenerate_padic(p, n) == degenerate
        assert brute_valuation_classes(p, n).classes == dict(enumerate(classes))


def test_residue_dtype_boundaries():
    assert _residue_dtype(181) == np.int16 and _residue_dtype(182) == np.int32
    assert _residue_dtype(46340) == np.int32 and _residue_dtype(46341) == np.int64
    assert _residue_dtype(3037000499) == np.int64
    with pytest.raises(ValueError):
        _residue_dtype(3037000500)  # q^2 >= 2^63


@pytest.mark.parametrize("q", [181, 46340, 3037000499])
@pytest.mark.parametrize("doubly_null", [False, True])
def test_residue_kernel_at_the_largest_residues_of_each_dtype(q, doubly_null):
    """Full enumeration at these moduli is out of reach, so the kernel is fed
    the extreme residues directly, in the dtype the oracle would pick, and
    compared with Python-int arithmetic: its solutions, and with
    `doubly_null` the subset _doubly_null keeps."""
    residues = (0, 1, 2, q - 2, q - 1)
    t = tuples_over(residues, 3)
    x = t.astype(_residue_dtype(q))
    tiles = _residue_kernel(np.array(residues, dtype=x.dtype), q)
    i, j = map(np.concatenate, zip(*tiles))
    if doubly_null:
        keep = _doubly_null(x[:, i], x[:, j], q)
        i, j = i[keep], j[keep]
    got = set(zip(i.tolist(), j.tolist()))
    cols = t.T.tolist()
    want = set()
    for r, (x2, x3, x4) in enumerate(cols):
        for c, (y2, y3, y4) in enumerate(cols):
            ok = all(e % q == 0 for e in (x2 * y3 - x3 * y2, x2 * y4 - x4 * y2, x3 * y4 - x4 * y3))
            if doubly_null:
                ok = ok and (x2 * y3) % q == 0 and (x3 * y2) % q == 0
            if ok:
                want.add((r, c))
    assert got == want
    assert len(want) >= len(cols)  # every triple is collinear with itself


def test_valuation_classes_sum_to_total():
    for p, n in ((2, 2), (3, 1), (5, 1)):
        vc = brute_valuation_classes(p, n)
        assert vc.total() == brute_padic_solutions(p, n)
        assert set(vc.classes) == set(range(n + 1))
        # the all-divisible class is the h = n bucket: exactly one residue each
        assert vc.classes[n] == 1


# --- quadruple-product table ----------------------------------------------------


def test_brute_r_table_mass_and_symmetry():
    for n in (1, 2, 3):
        table = brute_r_table(n)
        side = 2 * n + 1
        assert sum(table.values()) == side**4
        assert all(table[-h] == v for h, v in table.items())
        assert max(table) == 2 * n * n


def test_brute_r_table_n1_by_hand():
    # x1*x2 takes values -1, 0, 1 with multiplicities 2, 5, 2.
    dist = {-1: 2, 0: 5, 1: 2}
    expected = {}
    for a, ca in dist.items():
        for b, cb in dist.items():
            expected[a - b] = expected.get(a - b, 0) + ca * cb
    assert brute_r_table(1) == expected


def test_resolve_threads(monkeypatch):
    assert resolve_threads(3) == 3
    with pytest.raises(ValueError):
        resolve_threads(0)
    # The default is the CPUs this process may run on (taskset -c 0 leaves
    # one however many the machine has), and the CPU count where the
    # platform has no affinity call.
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert resolve_threads() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert resolve_threads() == 5
