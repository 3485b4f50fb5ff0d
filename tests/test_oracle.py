"""The brute-force oracles are trusted everywhere else, so this file holds
them to an even simpler standard: tiny pure-Python re-enumerations, internal
identities, and honest budget refusals.
"""

import multiprocessing

import numpy as np
import pytest

from commucount.errors import BudgetExceeded, NotPrime, UnsupportedDimension
from commucount.oracle import (
    _BLOCK_KEYS,
    MeetInMiddle3,
    _count3_range,
    _parallel_over_a,
    WorkBudget,
    a_rows,
    brute_commuting_count,
    brute_degenerate_padic,
    brute_padic_solutions,
    brute_r_table,
    brute_valuation_classes,
    grid_tuples,
    resolve_threads,
    states_3x3,
)


def matmul3(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)]
        for i in range(3)
    ]


def test_grid_tuples_shape_and_order():
    t = grid_tuples(1, 2)
    assert t.shape == (9, 2)
    assert t[0].tolist() == [-1, -1]
    assert t[-1].tolist() == [1, 1]
    assert len(np.unique(t, axis=0)) == 9


def test_brute_2x2_against_plain_loops():
    """Re-derive c_2(1) with nothing but range() and lists."""
    mats = [
        ((a, b), (c, d))
        for a in (-1, 0, 1)
        for b in (-1, 0, 1)
        for c in (-1, 0, 1)
        for d in (-1, 0, 1)
    ]

    def mul(x, y):
        return tuple(
            tuple(sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2))
            for i in range(2)
        )

    expected = sum(1 for A in mats for B in mats if mul(A, B) == mul(B, A))
    assert expected == 817
    assert brute_commuting_count(2, 1) == 817


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
    assert exc.value.states == 9**8
    assert exc.value.max_states == 1000
    with pytest.raises(BudgetExceeded):
        brute_commuting_count(3, 2, WorkBudget(10**6))
    with pytest.raises(BudgetExceeded):
        brute_r_table(100, WorkBudget(10**6))
    with pytest.raises(BudgetExceeded):
        brute_padic_solutions(2, 5, WorkBudget(10**6))


def test_states_3x3_accounting():
    side = 3
    assert states_3x3(1) == side**9 * (side**5 + side**4)


def test_meet_in_middle_partners_match_direct_scan():
    """For a sample of A's at N = 1, the meet-in-the-middle join must return
    exactly the B's a literal AB == BA scan finds."""
    mim = MeetInMiddle3(1)
    all_b = grid_tuples(1, 9)
    rng = np.random.default_rng(7)
    sample = rng.integers(0, 3**9, size=12)
    for a_id in sample:
        a_flat = a_rows(1, [int(a_id)])[0]
        a = a_flat.reshape(3, 3).tolist()
        direct = {
            tuple(bf.tolist())
            for bf in all_b
            if matmul3(a, bf.reshape(3, 3).tolist())
            == matmul3(bf.reshape(3, 3).tolist(), a)
        }
        partners = {tuple(row.tolist()) for row in mim.partners_for_a(a_flat)}
        assert partners == direct
        assert mim.count_for_a(a_flat) == len(direct)


def commuting_counts_by_scan(a_flats):
    """For each A, the number of B in the N = 1 box with AB == BA, by a
    literal vectorized scan over all 3^9 B."""
    bs = grid_tuples(1, 9).reshape(-1, 3, 3)
    out = []
    for a_flat in a_flats:
        a = a_flat.reshape(3, 3)
        commutes = np.einsum("ij,bjk->bik", a, bs) == np.einsum("bij,jk->bik", bs, a)
        out.append(int(commutes.all(axis=(1, 2)).sum()))
    return out


@pytest.mark.parametrize("n, lo, rows", [(1, 0, 40), (1, 9000, 300), (2, 123456, 600)])
def test_block_join_matches_per_a_counts(n, lo, rows):
    mim = MeetInMiddle3(n)
    if n == 2:
        assert mim.max_rows < rows  # the range spans more than one block
    a = a_rows(n, np.arange(lo, lo + rows))
    per_a = [mim.count_for_a(a_flat) for a_flat in a]
    blocks = np.concatenate(
        [mim.count_block(a[s : s + mim.max_rows]) for s in range(0, rows, mim.max_rows)]
    )
    assert blocks.tolist() == per_a
    assert _count3_range(n, lo, lo + rows) == sum(per_a)
    if n == 1:
        assert per_a[::10] == commuting_counts_by_scan(a[::10])


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


def _sum_range(n, lo, hi, offset):
    return sum(range(lo, hi)) + offset


def _interrupted_range(n, lo, hi):
    if lo > 0:
        raise KeyboardInterrupt
    return 0


def test_parallel_over_a_sums_the_parts():
    assert _parallel_over_a(_sum_range, 0, 100, 3, 1) == sum(range(100)) + 3
    assert _parallel_over_a(_sum_range, 0, 100, 1, 1) == sum(range(100)) + 1


def test_interrupt_in_a_worker_terminates_the_pool(time_limit):
    with time_limit(60), pytest.raises(KeyboardInterrupt):
        _parallel_over_a(_interrupted_range, 0, 10, 2)
    assert multiprocessing.active_children() == []


def test_meet_in_middle_rejects_overflowing_n():
    with pytest.raises(ValueError):
        MeetInMiddle3(10**9)


def test_a_batch_is_lexicographic():
    batch = a_rows(1, np.arange(3**9))
    assert np.array_equal(batch, grid_tuples(1, 9))


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


def test_resolve_threads():
    assert resolve_threads(3) == 3
    with pytest.raises(ValueError):
        resolve_threads(0)


def test_resolve_threads_env(monkeypatch):
    monkeypatch.setenv("COMMUCOUNT_THREADS", "2")
    assert resolve_threads() == 2
    monkeypatch.setenv("COMMUCOUNT_THREADS", "zero")
    with pytest.raises(ValueError):
        resolve_threads()
