"""The 3x3 linear system, exact rank computation (reference and batched),
the rank classification of the commuting box, lower-bound certificates, and
the 4x4 infeasibility demonstration.
"""

import itertools
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from commucount.errors import (
    BudgetExceeded,
    DimensionMismatch,
    IndexOutOfRange,
    InvariantViolation,
    UnsupportedDimension,
)
from commucount.oracle import (
    DEFAULT_MAX_STATES,
    MeetInMiddle3,
    WorkBudget,
    a_rows,
    brute_commuting_count,
)
from commucount.rank3 import (
    _pair_systems,
    _scalar_histogram,
    batched_rank,
    build_system_3x3,
    check_offdiag_constraint,
    classify_commuting_3x3,
    commutator,
    cross_det,
    inconsistency_demo_4x4,
    lower_bound_E,
    lower_bound_certificate,
    matrix_rank_exact,
    orbit_count,
    orbit_group,
    orbit_representatives,
)


def random_pair(rng, lo=-5, hi=6):
    a = rng.integers(lo, hi, (3, 3)).tolist()
    b = rng.integers(lo, hi, (3, 3)).tolist()
    return a, b


# --- commutator and cross determinants ----------------------------------------


def test_commutator_basics():
    a = [[0, 1], [0, 0]]
    b = [[0, 0], [1, 0]]
    assert commutator(a, b) == [[1, 0], [0, -1]]
    assert commutator(a, a) == [[0, 0], [0, 0]]


def test_commutator_is_traceless_and_antisymmetric():
    rng = np.random.default_rng(0)
    for _ in range(25):
        a, b = random_pair(rng)
        c = commutator(a, b)
        assert sum(c[i][i] for i in range(3)) == 0
        neg = commutator(b, a)
        assert all(c[i][j] == -neg[i][j] for i in range(3) for j in range(3))


def test_commutator_shape_checks():
    with pytest.raises(DimensionMismatch):
        commutator([[1, 2]], [[1]])
    with pytest.raises(DimensionMismatch):
        commutator([[1]], [[1, 0], [0, 1]])


def test_cross_det():
    a = [[1, 2, 0], [0, 1, 0], [0, 0, 1]]
    b = [[3, 0, 0], [0, 4, 0], [0, 0, 5]]
    # positions 1 and 5 are the (1,1) and (2,2) entries
    assert cross_det(a, b, 1, 5) == 1 * 4 - 1 * 3
    assert cross_det(a, b, 5, 1) == -(cross_det(a, b, 1, 5))
    assert cross_det(a, b, 3, 3) == 0
    with pytest.raises(IndexOutOfRange):
        cross_det(a, b, 0, 5)
    with pytest.raises(IndexOutOfRange):
        cross_det(a, b, 1, 10)


# --- exact rank, two ways -------------------------------------------------------


def test_rank_reference_cases():
    assert matrix_rank_exact([]) == 0
    assert matrix_rank_exact([[0, 0], [0, 0]]) == 0
    assert matrix_rank_exact([[1, 2], [2, 4]]) == 1
    assert matrix_rank_exact([[1, 2], [3, 4]]) == 2
    assert matrix_rank_exact([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 2
    # tall and wide shapes
    assert matrix_rank_exact([[1], [2], [3]]) == 1
    assert matrix_rank_exact([[1, 0, 2, 0]]) == 1


def test_rank_reference_no_overflow_wobble():
    # fraction-free elimination grows entries; huge values must stay exact
    m = [[10**40, 1], [1, 10**40]]
    assert matrix_rank_exact(m) == 2
    m = [[10**40, 10**30], [10**20, 10**11]]
    assert matrix_rank_exact(m) == 2
    assert matrix_rank_exact([[10**40, 10**30], [10**30, 10**20]]) == 1


@settings(max_examples=80)
@given(st.integers(0, 2**32))
def test_batched_rank_agrees_with_reference(seed):
    rng = np.random.default_rng(seed)
    mats = rng.integers(-9, 10, (40, 6, 4))
    # make low ranks actually occur: zero out random rows and duplicate others
    for i in range(0, 40, 3):
        mats[i, rng.integers(0, 6)] = 0
        mats[i, rng.integers(0, 6)] = mats[i, rng.integers(0, 6)]
    got = batched_rank(mats.astype(np.int64))
    want = [matrix_rank_exact(m.tolist()) for m in mats]
    assert got.tolist() == want


def test_batched_rank_shapes_and_guards():
    assert batched_rank(np.zeros((0, 3, 3), dtype=np.int64)).tolist() == []
    assert batched_rank(np.zeros((2, 3, 3), dtype=np.int64)).tolist() == [0, 0]
    with pytest.raises(ValueError):
        batched_rank(np.zeros((3, 3), dtype=np.int64))
    # Hadamard guard: entries this large can alias a minor to 0 mod p
    with pytest.raises(ValueError):
        batched_rank(np.full((1, 4, 4), 2**40, dtype=np.int64))


def test_batched_rank_row_order_invariance():
    rng = np.random.default_rng(42)
    mats = rng.integers(-6, 7, (30, 6, 4)).astype(np.int64)
    base = batched_rank(mats)
    perm = rng.permutation(6)
    assert batched_rank(mats[:, perm, :]).tolist() == base.tolist()


# --- the 6x4 system --------------------------------------------------------------


def x_vector(a, b):
    return [a[1][1] - a[0][0], b[1][1] - b[0][0], a[2][2] - a[0][0], b[2][2] - b[0][0]]


def test_system_rows_reproduce_the_commutator():
    """M X - Y must equal the six off-diagonal commutator entries, in the
    documented order and sign convention, for arbitrary integer pairs —
    commuting or not."""
    rng = np.random.default_rng(11)
    order = [(0, 1), (1, 0), (0, 2), (2, 0), (2, 1), (1, 2)]
    signs = [1, 1, 1, 1, -1, -1]
    for _ in range(150):
        a, b = random_pair(rng, -9, 10)
        sys_ = build_system_3x3(a, b)
        c = commutator(a, b)
        x = x_vector(a, b)
        for r in range(6):
            mx = sum(sys_.m_matrix[r][k] * x[k] for k in range(4))
            i, j = order[r]
            assert mx - sys_.y_vector[r] == signs[r] * c[i][j]


def test_pair_systems_batch_reproduces_the_commutator():
    """The batched rows the classification checks, X included, on one
    int64 batch of arbitrary pairs; and the one-pair case in Python
    integers stays exact far past int64."""
    rng = np.random.default_rng(12)
    a = rng.integers(-9, 10, (150, 9))
    b = rng.integers(-9, 10, (150, 9))
    m, x, y = _pair_systems(a, b)
    order = [(0, 1), (1, 0), (0, 2), (2, 0), (2, 1), (1, 2)]
    signs = np.array([1, 1, 1, 1, -1, -1])
    for k in range(150):
        am, bm = a[k].reshape(3, 3).tolist(), b[k].reshape(3, 3).tolist()
        assert x[k].tolist() == x_vector(am, bm)
        c = commutator(am, bm)
        want = signs * np.array([c[i][j] for i, j in order])
        assert (m[k] @ x[k] - y[k]).tolist() == want.tolist()
    big = [[10**30, 3, -(10**25)], [7, -(10**30), 2], [10**28, 5, 1]]
    other = [[1, 10**29, 4], [-(10**27), 2, 9], [3, -8, 10**30]]
    sys_ = build_system_3x3(big, other)
    c = commutator(big, other)
    xb = x_vector(big, other)
    for r, (i, j) in enumerate(order):
        mx = sum(sys_.m_matrix[r][k] * xb[k] for k in range(4))
        assert mx - sys_.y_vector[r] == (1 if r < 4 else -1) * c[i][j]


def test_pair_systems_ignore_the_diagonals():
    """M and Y depend only on the off-diagonal entries of A and B: new
    diagonal entries for B, or for both, leave them unchanged.  This is
    what lets the classification build and rank one system per distinct
    off-diagonal B, and check every pair against it."""
    rng = np.random.default_rng(31)
    diagonal = [0, 4, 8]
    for n in range(5):
        a = rng.integers(-n, n + 1, (300, 9))
        b = rng.integers(-n, n + 1, (300, 9))
        m, _, y = _pair_systems(a, b)
        a2, b2 = a.copy(), b.copy()
        a2[:, diagonal] = rng.integers(-n, n + 1, (300, 3))
        b2[:, diagonal] = rng.integers(-n, n + 1, (300, 3))
        for other in (_pair_systems(a, b2), _pair_systems(a2, b2)):
            assert np.array_equal(other[0], m)
            assert np.array_equal(other[2], y)


def test_ranking_the_distinct_systems_gives_every_pairs_rank():
    """At N = 1, the ranks of all 24274 pairs of the class representatives
    equal the ranks of their distinct (off-diagonal A, off-diagonal B)
    systems scattered back, and both give the classification's histogram,
    weighted by orbit size times 2N + 1 - spread."""
    mim = MeetInMiddle3(1)
    reps, sizes, _ = orbit_representatives(1, 0, 3**9)
    a = a_rows(1, reps)
    assert len(a) <= mim.max_rows
    row, i1, i2 = mim.partner_pairs(a)
    assert len(row) == 24274
    m = _pair_systems(a[row], np.concatenate([mim.h1[i1], mim.h2[i2]], axis=1))[0]
    ranks = batched_rank(m)
    off = [1, 2, 3, 5, 6, 7]
    pairs_off = np.concatenate([a[row][:, off], mim.h1[i1][:, 1:4], mim.h2[i2][:, :3]], axis=1)
    _, first, inverse = np.unique(pairs_off, axis=0, return_index=True, return_inverse=True)
    assert len(first) < len(row) // 10
    assert np.array_equal(batched_rank(m[first])[inverse.ravel()], ranks)
    weights = 2 - a[:, [0, 4, 8]].max(axis=1)
    hist = (sizes * weights) @ np.bincount(5 * row + ranks, minlength=5 * len(a)).reshape(-1, 5)
    assert tuple(hist.tolist()) == classify_commuting_3x3(1).s


def test_system_rank_matches_reference():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b = random_pair(rng)
        sys_ = build_system_3x3(a, b)
        assert sys_.rank == matrix_rank_exact([list(r) for r in sys_.m_matrix])


def test_system_requires_3x3():
    with pytest.raises(DimensionMismatch):
        build_system_3x3([[1, 0], [0, 1]], [[1, 0], [0, 1]])


def test_offdiag_constraint_on_commuting_pairs():
    # On commuting pairs the three cross determinants coincide.
    pairs = [
        ([[1, 2, 0], [0, 1, 0], [0, 0, 1]], [[5, 4, 0], [0, 5, 0], [0, 0, 3]]),
        ([[2, 0, 0], [0, 2, 0], [0, 0, 2]], [[1, 2, 3], [4, 5, 6], [7, 8, 9]]),
        ([[1, 1, 1], [1, 1, 1], [1, 1, 1]], [[0, 1, 1], [1, 0, 1], [1, 1, 0]]),
    ]
    for a, b in pairs:
        assert all(v == 0 for row in commutator(a, b) for v in row)
        t = check_offdiag_constraint(a, b)
        assert t[0] == t[1] == t[2]


def test_offdiag_constraint_values():
    a = [[0, 1, 0], [2, 0, 0], [0, 0, 0]]
    b = [[0, 3, 0], [5, 0, 0], [0, 0, 0]]
    t = check_offdiag_constraint(a, b)
    assert t[0] == 1 * 5 - 2 * 3  # a2*b4 - a4*b2
    assert t[1] == 0 and t[2] == 0


# --- classification ---------------------------------------------------------------


def test_classification_at_n1():
    rc = classify_commuting_3x3(1)
    assert rc.s == (729, 19872, 194016, 116352, 44448)
    assert rc.total() == brute_commuting_count(3, 1) == 375417
    assert rc.s[0] == 3**6  # rank 0 means M = 0: both matrices diagonal


def test_classification_at_n0():
    rc = classify_commuting_3x3(0)
    assert rc.s == (1, 0, 0, 0, 0)
    assert rc.total() == 1


@pytest.mark.parametrize("n", [0, 1])
def test_scalar_partners_are_the_diagonals_times_the_off_diagonal_histogram(n):
    """The identity the classification's scalar path rests on: every B
    commutes with A = aI, and M reads only off-diagonal entries, so the
    rank histogram over A's partners in the join is (2n+1)^3, for B's
    diagonals, times the histogram of the (2n+1)^6 off-diagonal B, which
    _scalar_histogram computes.  Composed here from the join, the system
    builder and the rank, with M X = Y checked on every pair."""
    side = 2 * n + 1
    mim = MeetInMiddle3(n)
    b_off = np.zeros((side**6, 9), dtype=np.int64)
    b_off[:, [1, 2, 3, 5, 6, 7]] = list(itertools.product(range(-n, n + 1), repeat=6))
    m_off = _pair_systems(np.zeros_like(b_off), b_off)[0]
    off_hist = np.bincount(batched_rank(m_off), minlength=5)
    assert off_hist.sum() == side**6 and off_hist[0] == 1
    for a in (0, 1, -1):
        a_flat = a * np.eye(3, dtype=np.int64).ravel()
        _, i1, i2 = mim.partner_pairs(a_flat[None, :])
        assert len(i1) == side**9
        b = np.concatenate([mim.h1[i1], mim.h2[i2]], axis=1)
        m, x, y = _pair_systems(np.repeat(a_flat[None, :], len(b), axis=0), b)
        assert np.array_equal(np.einsum("krc,kc->kr", m, x), y)
        hist = np.bincount(batched_rank(m), minlength=5)
        assert hist.tolist() == (side**3 * off_hist).tolist()
        assert _scalar_histogram(n, a_flat).tolist() == off_hist.tolist()


def traced_peak_mb(run) -> float:
    """The peak of the memory traced by tracemalloc, to which numpy reports
    its buffers, while run() runs, above what was traced before it."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run()
        return (tracemalloc.get_traced_memory()[1] - before) / 2**20
    finally:
        if started:
            tracemalloc.stop()


def test_classification_at_n1_holds_little_memory():
    """One image table of at most _CANON_ROWS ids and one join block at a
    time, with the scalar class out of the join: a table of all 3^9 ids
    would take 15 MB."""
    classify_commuting_3x3(0, threads=1)
    assert traced_peak_mb(lambda: classify_commuting_3x3(1, threads=1)) < 8


def test_scalar_histogram_at_n2_holds_little_memory():
    """The 5^6 off-diagonal systems are ranked _SCALAR_ROWS at a time: in
    one batch they took 22.5 MB."""
    zero = np.zeros(9, dtype=np.int64)
    _scalar_histogram(1, zero)
    assert traced_peak_mb(lambda: _scalar_histogram(2, zero)) < 8


@pytest.mark.skipif(
    os.environ.get("COMMUCOUNT_ACCEPT_FULL") != "1",
    reason="set COMMUCOUNT_ACCEPT_FULL=1 for the classification at N = 2",
)
def test_classification_at_n2_holds_little_memory():
    """At N = 2 the scalar class would bring 5^9 pairs into the join; out
    of it, its 5^6 off-diagonal systems and the join's blocks are the
    largest arrays."""
    classify_commuting_3x3(0, threads=1)
    assert traced_peak_mb(lambda: classify_commuting_3x3(2, threads=1)) < 48


@pytest.mark.skipif(
    os.environ.get("COMMUCOUNT_ACCEPT_FULL") != "1",
    reason="set COMMUCOUNT_ACCEPT_FULL=1 for the classification at N = 3",
)
def test_classification_at_n3_is_pinned():
    """A single-route value: no oracle reaches N = 3, so it is pinned, not
    verified.  It runs under the default budget, rank 0 is the 7^6
    both-diagonal pairs, and the total stays above the certificate."""
    rc = classify_commuting_3x3(3)
    assert rc.s == (117649, 9741984, 864661632, 165554592, 134085984)
    assert rc.s[0] == 7**6
    assert rc.total() == 1174161841
    assert lower_bound_certificate(3, 3) <= rc.total()


def test_classification_is_the_same_for_any_worker_count():
    """Each worker canonicalizes and joins its own range of ids; the split
    leaves the classes unchanged, and n = 0, one id, takes one worker."""
    for threads in (1, 2, 3):
        assert classify_commuting_3x3(1, threads=threads).s == (729, 19872, 194016, 116352, 44448)
    assert classify_commuting_3x3(0, threads=2).s == (1, 0, 0, 0, 0)


def test_classification_budget_gate():
    with pytest.raises(BudgetExceeded):
        classify_commuting_3x3(2, WorkBudget(10**6))
    with pytest.raises(ValueError):
        classify_commuting_3x3(-1)


def test_classification_refuses_n5_before_canonicalizing(monkeypatch, time_limit):
    """n = 5 overflows the oracle's key packing; the refusal comes before
    the 11^9 ids are canonicalized, whatever the budget."""
    import commucount.rank3 as rank3

    def started(n, a):
        raise AssertionError("canonicalization started")

    monkeypatch.setattr(rank3, "_orbit_images", started)
    with time_limit(10), pytest.raises(ValueError, match="n=5 overflows"):
        classify_commuting_3x3(5, WorkBudget(10**12))


# The charge of the classification at n = 3: 96 states for each of the
# 7^9 - 6^3 * 7^6 classes, 1.43e9 for the canonicalization, plus
# 160176 * (7^5 + 7^4) ~ 3.08e9 for the joins.
N3_CANON = 96 * (7**9 - 6**3 * 7**6)
N3_JOINS = 160176 * (7**5 + 7**4)


def test_classification_refuses_the_join_before_canonicalizing(monkeypatch, time_limit):
    """At n = 3 each phase alone would fit a budget of 4e9; the orbit count
    is known up front, so the charge is the sum of both phases and the
    refusal comes before any id is canonicalized."""
    import commucount.rank3 as rank3

    def started(n, a):
        raise AssertionError("canonicalization started")

    monkeypatch.setattr(rank3, "_orbit_images", started)
    assert (N3_CANON, N3_JOINS) == (1434376608, 3076660608)
    assert max(N3_CANON, N3_JOINS) < 4 * 10**9 < N3_CANON + N3_JOINS
    with time_limit(10), pytest.raises(BudgetExceeded) as refused:
        classify_commuting_3x3(3, WorkBudget(4 * 10**9))
    assert refused.value.states == N3_CANON + N3_JOINS == 4511037216


def test_classification_at_n4_is_refused_by_the_default_budget(monkeypatch, time_limit):
    """At n = 4 the 9^9 - 8^3 * 9^6 classes and their 1216925 orbits need
    9.09e10 states, over the default budget of 1e10."""
    import commucount.rank3 as rank3

    def started(n, a):
        raise AssertionError("canonicalization started")

    monkeypatch.setattr(rank3, "_orbit_images", started)
    charge = 96 * (9**9 - 8**3 * 9**6) + 1216925 * (9**5 + 9**4)
    with time_limit(10), pytest.raises(BudgetExceeded) as refused:
        classify_commuting_3x3(4)
    assert (refused.value.states, refused.value.max_states) == (charge, DEFAULT_MAX_STATES)
    assert charge == 90913428162


def test_classification_charge_covers_the_states_visited(monkeypatch):
    """The budget is charged, before each phase, at least the states the
    phase visits: the 96 images of every class, then both half tabulations
    of every canonical class; the 3x3 and the 2x2 oracle are charged
    join_states(n, d)."""
    import commucount.rank3 as rank3

    charged, visited = [], []
    real_require = WorkBudget.require
    real_images = rank3._orbit_images
    real_keys = MeetInMiddle3._sorted_keys

    def require(self, states, what):
        charged.append(states)
        real_require(self, states, what)

    def images(n, a):
        out = real_images(n, a)
        visited.append(out.size)
        return out

    def keys(self, a_block, order=False):
        visited.append(len(a_block) * (len(self.h1) + len(self.h2)))
        return real_keys(self, a_block, order)

    monkeypatch.setattr(WorkBudget, "require", require)
    monkeypatch.setattr(rank3, "_orbit_images", images)
    monkeypatch.setattr(MeetInMiddle3, "_sorted_keys", keys)
    for n in (0, 1):
        for run in (
            lambda: classify_commuting_3x3(n, threads=1),
            lambda: brute_commuting_count(3, n, threads=1),
            lambda: brute_commuting_count(2, n),
        ):
            charged.clear()
            visited.clear()
            run()
            assert sum(visited) <= sum(charged) <= 2 * sum(visited)


# --- the symmetry group ---------------------------------------------------------


def act(g, a_flat):
    src, sign = orbit_group()
    return sign[g] * np.asarray(a_flat)[src[g]]


def test_orbit_group_has_96_distinct_actions():
    src, sign = orbit_group()
    assert src.shape == sign.shape == (96, 9)
    assert len({(tuple(s), tuple(e)) for s, e in zip(src, sign)}) == 96
    assert all(sorted(s) == list(range(9)) for s in src.tolist())
    # a group: it holds the identity and is closed under composition, and
    # its maps differ on a generic matrix
    generic = np.arange(1, 10)
    images = {tuple(act(g, generic)) for g in range(96)}
    assert len(images) == 96 and tuple(generic) in images
    for g in range(0, 96, 7):
        for h in range(96):
            assert tuple(act(g, act(h, generic))) in images


def test_orbit_group_is_conjugation_transpose_and_negation():
    rng = np.random.default_rng(4)
    a = rng.integers(-5, 6, (3, 3))
    expected = set()
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            p = np.diag(signs) @ np.eye(3, dtype=np.int64)[list(perm)]
            c = p @ a @ p.T  # p is orthogonal: p^-1 = p^T
            for t in (c, c.T):
                expected |= {tuple(t.ravel()), tuple(-t.ravel())}
    assert {tuple(act(g, a.ravel())) for g in range(96)} == expected


def rank_histogram(mim, a_flat):
    bs = mim.partners_for_a(a_flat)
    m, _, _ = _pair_systems(np.repeat(a_flat[None, :], len(bs), axis=0), bs)
    return np.bincount(batched_rank(m), minlength=5).tolist()


def test_group_keeps_counts_and_rank_histograms():
    mim = MeetInMiddle3(1)
    rng = np.random.default_rng(96)
    sample = list(a_rows(1, rng.integers(0, 3**9, 5)))
    sample += [np.array([1, 0, 0, 0, 0, 0, 0, 0, -1]), np.array([0, 1, 0, 0, 0, 1, 0, 0, 0])]
    for a_flat in sample:
        count = mim.count_for_a(a_flat)
        hist = rank_histogram(mim, a_flat)
        assert sum(hist) == count
        for g in range(96):
            b_flat = act(g, a_flat)
            assert mim.count_for_a(b_flat) == count
            assert rank_histogram(mim, b_flat) == hist


def shifted(g, a_flat, n):
    """act(g, a_flat), then shifted by a multiple of I so that its smallest
    diagonal entry is -n: the class of g.A."""
    image = act(g, a_flat)
    return image - (image[[0, 4, 8]].min() + n) * np.eye(3, dtype=np.int64).ravel()


def test_orbit_representatives_at_n1():
    reps, sizes, admitted = orbit_representatives(1, 0, 3**9)
    assert len(reps) == 220
    assert int(sizes.sum()) == admitted == 3**9 - 2**3 * 3**6 == 13851
    assert orbit_representatives(0, 0, 1)[0].tolist() == [0]
    # each representative is the smallest id of its orbit, and its orbit
    # size is the number of distinct images, computed entry by entry
    place = 3 ** np.arange(8, -1, -1)
    grid = a_rows(1, np.arange(3**9))
    for rep, size in zip(reps[::5], sizes[::5]):
        assert grid[rep][[0, 4, 8]].min() == -1
        ids = {int((shifted(g, grid[rep], 1) + 1) @ place) for g in range(96)}
        assert min(ids) == rep
        assert len(ids) == size


def test_orbit_representatives_of_a_split_are_those_of_the_whole():
    reps, sizes, admitted = orbit_representatives(1, 0, 3**9)
    cuts = [0, 1, 1000, 1001, 7777, 3**9 - 2, 3**9]
    parts = [orbit_representatives(1, lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    assert np.array_equal(np.concatenate([p[0] for p in parts]), reps)
    assert np.array_equal(np.concatenate([p[1] for p in parts]), sizes)
    assert sum(p[2] for p in parts) == admitted


def test_orbit_count_is_the_number_of_canonical_a():
    from commucount.rank3 import _CANON_ROWS

    assert [orbit_count(n) for n in range(4)] == [1, 220, 10803, 160176]
    for n in range(3):
        n_a = (2 * n + 1) ** 9
        found = sum(
            len(orbit_representatives(n, lo, min(lo + _CANON_ROWS, n_a))[0])
            for lo in range(0, n_a, _CANON_ROWS)
        )
        assert orbit_count(n) == found


@pytest.mark.parametrize("n", [0, 1, 2])
def test_orbit_sizes_times_weights_cover_the_box(n):
    """Each canonical class stands for its orbit size times 2n + 1 - spread
    matrices of the box, and together they cover it."""
    side = 2 * n + 1
    reps, sizes, admitted = orbit_representatives(n, 0, side**9)
    diagonal = a_rows(n, reps)[:, [0, 4, 8]]
    assert (diagonal.min(axis=1) == -n).all()
    weights = side - (diagonal.max(axis=1) - diagonal.min(axis=1))
    assert int(sizes.sum()) == admitted == side**9 - (side - 1) ** 3 * side**6
    assert int(sizes @ weights) == side**9


def test_orbit_representatives_reject_a_broken_group(monkeypatch):
    import commucount.rank3 as rank3

    src, sign = orbit_group()
    monkeypatch.setattr(rank3, "orbit_group", lambda: (src[:95], sign[:95]))
    with pytest.raises(InvariantViolation):
        orbit_representatives(1, 0, 3**9)
    with pytest.raises(InvariantViolation):
        classify_commuting_3x3(1, threads=1)


def overwrite_a_column(images):
    images[:, 5] = images[:, 6]


def shift_a_column(images):
    images[:, 5] += 1


@pytest.mark.parametrize("corrupt", [overwrite_a_column, shift_a_column])
def test_classification_rejects_corrupted_orbit_images(monkeypatch, corrupt):
    import commucount.rank3 as rank3

    real_images = rank3._orbit_images

    def images(n, a):
        out = real_images(n, a)
        corrupt(out)
        return out

    monkeypatch.setattr(rank3, "_orbit_images", images)
    with pytest.raises(InvariantViolation):
        classify_commuting_3x3(1, threads=1)


def test_classification_rejects_negated_images_left_unshifted(monkeypatch):
    """Without the (max diag A - n) I that brings -g.A back into the class
    set, the negated images leave it, and the canonicalization's checks
    refuse the result."""
    import commucount.rank3 as rank3

    real_images = rank3._orbit_images

    def images(n, a):
        out = real_images(n, a)
        place = (2 * n + 1) ** np.arange(8, -1, -1)
        out[:, 48:] -= ((a[:, [0, 4, 8]].max(axis=1) - n) * place[[0, 4, 8]].sum())[:, None]
        return out

    monkeypatch.setattr(rank3, "_orbit_images", images)
    with pytest.raises(InvariantViolation):
        classify_commuting_3x3(1, threads=1)


def test_classification_rejects_an_a_outside_the_class_set(monkeypatch):
    """Admitting one A whose smallest diagonal entry is above -n, here the
    zero matrix, canonicalizes one class too many."""
    import commucount.rank3 as rank3

    real_rows = rank3._class_rows
    zero_id = (3**9 - 1) // 2

    def rows(n, lo, hi):
        ids, a = real_rows(n, lo, hi)
        if lo <= zero_id < hi:
            ids, a = np.append(ids, zero_id), np.vstack([a, np.zeros(9, dtype=np.int64)])
        return ids, a

    monkeypatch.setattr(rank3, "_class_rows", rows)
    with pytest.raises(InvariantViolation):
        classify_commuting_3x3(1, threads=1)


def drop_an_orbit(reps, sizes, admitted):
    """One canonical A fewer, its size moved to the next, so the sizes still
    sum to the number of classes."""
    return reps[1:], sizes[1:] + (np.arange(len(sizes) - 1) == 0) * sizes[0], admitted


def miscount_an_orbit(reps, sizes, admitted):
    return reps, sizes + (np.arange(len(sizes)) == 0), admitted


@pytest.mark.parametrize("corrupt", [drop_an_orbit, miscount_an_orbit])
def test_classification_checks_the_orbits_the_workers_found(monkeypatch, corrupt):
    """The workers' canonical classes must number orbit_count(n) and their
    sizes sum to the number of classes."""
    import commucount.rank3 as rank3

    real_representatives = rank3.orbit_representatives
    monkeypatch.setattr(
        rank3, "orbit_representatives", lambda n, lo, hi: corrupt(*real_representatives(n, lo, hi))
    )
    with pytest.raises(InvariantViolation):
        classify_commuting_3x3(1, threads=1)


# --- lower bounds -----------------------------------------------------------------


def test_lower_bound_E_small():
    # d = 2, n = 1: sum over x in [-2, 2] of (3 - |x|)^2 = 1+4+9+4+1
    assert lower_bound_E(2, 1) == 19
    assert lower_bound_E(3, 1) == 1 + 8 + 27 + 8 + 1
    assert lower_bound_E(2, 0) == 1


def test_lower_bound_E_direct():
    """E_d(n) counts ordered pairs of d-tuples in the box whose difference
    is a constant vector; check by literal enumeration where that fits."""
    import itertools

    for d, n in ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1)):
        box = list(itertools.product(range(-n, n + 1), repeat=d))
        direct = sum(
            1
            for u in box
            for v in box
            if len({ui - vi for ui, vi in zip(u, v)}) == 1
        )
        assert lower_bound_E(d, n) == direct


def test_lower_bound_E_closed_form_equals_the_literal_sum():
    for d in range(2, 7):
        for n in range(201):
            side = 2 * n + 1
            literal = sum((side - abs(x)) ** d for x in range(-2 * n, 2 * n + 1))
            assert lower_bound_E(d, n) == literal


def test_lower_bound_certificate_at_a_huge_n_is_prompt(time_limit):
    with time_limit(1):
        value = lower_bound_certificate(3, 10**12)
    assert value > (2 * 10**12) ** 10


def test_lower_bound_E_growth():
    # E_d(N) >= (2/(d+1)) (2N)^{d+1}, exactly, for the acceptance range.
    for d in (2, 3):
        for n in range(1, 101):
            assert lower_bound_E(d, n) * (d + 1) >= 2 * (2 * n) ** (d + 1)


def test_lower_bound_E_validation():
    with pytest.raises(ValueError):
        lower_bound_E(1, 5)
    with pytest.raises(ValueError):
        lower_bound_E(7, 5)
    with pytest.raises(ValueError):
        lower_bound_E(2, -1)


def test_certificate_below_true_counts():
    for n in range(5):
        assert lower_bound_certificate(2, n) <= brute_commuting_count(2, n)
    assert lower_bound_certificate(3, 1) == 120969
    assert lower_bound_certificate(3, 1) <= 375417


def test_certificate_value_2x2():
    # (2n)^2 * E_2(n) + 2*(2n+1)^5 - (2n+1)^2 at n = 1
    assert lower_bound_certificate(2, 1) == 4 * 19 + 2 * 243 - 9 == 553


def test_certificate_dimension_gate():
    with pytest.raises(UnsupportedDimension):
        lower_bound_certificate(4, 1)


# --- the 4x4 demonstration ---------------------------------------------------------


def test_demo_fixed_report():
    rep = inconsistency_demo_4x4(0, 0, 0, 0, 0, 0, 0, 0)
    assert rep == {
        "diagonal_vanishes": True,
        "seventh_row_zero": True,
        "seventh_y": 1,
        "first_six_determinant": -2,
        "infeasible": True,
    }


def test_demo_is_diagonal_independent():
    rng = np.random.default_rng(20260814)
    for _ in range(100):
        diag = [int(v) for v in rng.integers(-3, 4, 8)]
        rep = inconsistency_demo_4x4(*diag)
        assert rep["diagonal_vanishes"]
        assert rep["seventh_row_zero"]
        assert rep["seventh_y"] == 1
        assert rep["first_six_determinant"] == -2
        assert rep["infeasible"]


def test_demo_pair_really_does_not_commute():
    # sanity: the demonstration pair cannot commute for any diagonal, since
    # its system is infeasible; spot-check the commutator is nonzero.
    rep_diag = (1, -2, 3, 0, 2, 2, -1, 0)
    a = [list(r) for r in ((0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 3), (1, 1, 2, 0))]
    b = [list(r) for r in ((0, 1, 1, -2), (0, 0, 0, 1), (0, 1, 0, 2), (0, 0, 1, 0))]
    for i, (da, db) in enumerate(zip(rep_diag[:4], rep_diag[4:])):
        a[i][i] = da
        b[i][i] = db
    c = commutator(a, b)
    assert any(v != 0 for row in c for v in row)
    assert all(c[i][i] == 0 for i in range(4))


def test_pair_systems_reproduce_the_4x4_commutator():
    """The one system builder, on the demonstration's row table and on
    arbitrary 4x4 pairs: row r of M X - Y is the (i, j) commutator entry."""
    from commucount.rank3 import _DEMO_PAIR_ORDER

    rng = np.random.default_rng(44)
    a = rng.integers(-9, 10, (40, 16))
    b = rng.integers(-9, 10, (40, 16))
    m, x, y = _pair_systems(a, b, _DEMO_PAIR_ORDER)
    assert m.shape == (40, 12, 6) and x.shape == (40, 6)
    for k in range(40):
        c = commutator(a[k].reshape(4, 4).tolist(), b[k].reshape(4, 4).tolist())
        want = [c[i - 1][j - 1] for i, j, _ in _DEMO_PAIR_ORDER]
        assert (m[k] @ x[k] - y[k]).tolist() == want
