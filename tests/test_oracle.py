"""The brute-force oracles are trusted everywhere else, so this file holds
them to an even simpler standard: tiny pure-Python re-enumerations, internal
identities, and honest budget refusals.
"""

import multiprocessing
import os

import numpy as np
import pytest

from commucount.errors import BudgetExceeded, NotPrime, UnsupportedDimension
from commucount.oracle import (
    _BLOCK_KEYS,
    MeetInMiddle3,
    _commuting_2x2_pairs,
    _count3_range,
    _entry_dtype,
    _parallel_over_a,
    _residue_dtype,
    _residue_pairs,
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
from commucount.verify import _padic_gate


def test_grid_tuples_shape_and_order():
    t = grid_tuples(1, 2)
    assert t.shape == (9, 2)
    assert t[0].tolist() == [-1, -1]
    assert t[-1].tolist() == [1, 1]
    assert len(np.unique(t, axis=0)) == 9


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


def test_2x2_kernel_at_the_largest_int16_entries():
    """Full enumeration at n = 90 is out of reach, so the kernel is fed the
    extreme entries directly and compared with Python-int arithmetic."""
    n = 90
    assert _entry_dtype(n) == np.int16 and _entry_dtype(n + 1) == np.int64
    assert 4 * n * n <= np.iinfo(np.int16).max < 4 * (n + 1) ** 2
    t = tuples_over((-n, -n + 1, 0, n - 1, n), 4)
    a = t.astype(np.int16)
    i, j = _commuting_2x2_pairs(a[:, :200], a)
    got = set(zip(i.tolist(), j.tolist()))
    cols = t.T.tolist()
    want = set()
    for r, (a1, a2, a3, a4) in enumerate(cols[:200]):
        for c, (b1, b2, b3, b4) in enumerate(cols):
            ab = (a1 * b1 + a2 * b3, a1 * b2 + a2 * b4, a3 * b1 + a4 * b3, a3 * b2 + a4 * b4)
            ba = (b1 * a1 + b2 * a3, b1 * a2 + b2 * a4, b3 * a1 + b4 * a3, b3 * a2 + b4 * a4)
            if ab == ba:
                want.add((r, c))
    assert got == want
    assert len(want) > 200  # the scalar matrices alone commute with everything


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


def commuting_by_scan(a_flat, n):
    """Every B in the box [-n, n]^9 that commutes with A, as flattened rows
    in lexicographic order, by a literal vectorized AB == BA scan over all
    (2n+1)^9 B, a slice of fixed b1 at a time.  int16 holds every entry of
    AB and BA, at most 3n^2 in absolute value."""
    assert 3 * n * n < 2**15
    rest = grid_tuples(n, 8).astype(np.int16)
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


# The commutator entries the keys pack, digit e for entry _KEY_ENTRIES[e]
# (0-based row, column); the (3, 3) entry is dropped.
_KEY_ENTRIES = ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1))


def _literal_commutator(a, b):
    """AB - BA of two row-major flattened 3x3 matrices, in Python ints."""
    return [
        [sum(a[3 * i + k] * b[3 * k + j] - b[3 * i + k] * a[3 * k + j] for k in range(3))
         for j in range(3)]
        for i in range(3)
    ]


@pytest.mark.parametrize("n", range(5))
def test_keys_unpack_to_the_half_commutators(n):
    """Every key of row r is r * key_span + 2 * v + h, h = 0 on half 1 and
    1 on half 2, and the base-key_base(n) digit e of v, less key_base(n) //
    2, is entry _KEY_ENTRIES[e] of [A, B1] for half 1, where B1 holds the
    half's five entries of B and zeros, or of -[A, B2] for half 2, where B2
    holds its last four.  Checked with Python ints on random blocks with the
    zero and a scalar A, on every key up to n = 2 and on 3000 keys a block
    at n = 3, 4."""
    mim = MeetInMiddle3(n)
    base = MeetInMiddle3.key_base(n)
    rng = np.random.default_rng(100 + n)
    a = rng.integers(-n, n + 1, (5, 9))
    a[0] = 0
    a[1] = np.diag([n, n, n]).ravel()
    w1 = len(mim.h1)
    for lo in range(0, len(a), mim.max_rows):
        block = a[lo : lo + mim.max_rows]
        keys, perm = mim._sorted_keys(block, order=True)
        assert (np.diff(keys) >= 0).all()
        positions = range(len(keys))
        if n >= 3:
            positions = rng.choice(len(keys), 3000, replace=False)
        for pos in positions:
            key, col = int(keys[pos]), int(perm[pos])
            row, rest = divmod(key, mim.key_span)
            assert row == pos // mim.width
            value, half = divmod(rest, 2)
            digits = []
            for _ in _KEY_ENTRIES:
                value, digit = divmod(value, base)
                digits.append(digit - base // 2)
            assert value == 0
            b = [0] * 9
            if col < w1:
                assert half == 0
                b[:5] = mim.h1[col].tolist()
                sign = 1
            else:
                assert half == 1
                b[5:] = mim.h2[col - w1].tolist()
                sign = -1
            c = _literal_commutator(block[row].tolist(), b)
            assert digits == [sign * c[i][j] for i, j in _KEY_ENTRIES]


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
        assert per_a[::10] == commuting_counts_by_scan(a[::10], 1)


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
    # 193^8 < 2^63 <= 301^8: n = 4 is the largest box the keys pack.
    assert MeetInMiddle3.key_base(4) == 193
    with pytest.raises(ValueError, match="n=5 overflows"):
        MeetInMiddle3.key_base(5)


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
@pytest.mark.parametrize("degenerate_only", [False, True])
def test_residue_kernel_at_the_largest_residues_of_each_dtype(q, degenerate_only):
    """Full enumeration at these moduli is out of reach, so the kernel is fed
    the extreme residues directly, in the dtype the oracle would pick, and
    compared with Python-int arithmetic."""
    t = tuples_over((0, 1, 2, q - 2, q - 1), 3)
    x = t.astype(_residue_dtype(q))
    i, j = _residue_pairs(x, x, q, degenerate_only)
    got = set(zip(i.tolist(), j.tolist()))
    cols = t.T.tolist()
    want = set()
    for r, (x2, x3, x4) in enumerate(cols):
        for c, (y2, y3, y4) in enumerate(cols):
            ok = all(e % q == 0 for e in (x2 * y3 - x3 * y2, x2 * y4 - x4 * y2, x3 * y4 - x4 * y3))
            if degenerate_only:
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
