"""3x3 commutator machinery: the linear system in the diagonal differences,
exact rank classification of commuting pairs, lower-bound certificates, and
the 4x4 demonstration that the same system can be globally infeasible.

Entries are flattened row-major, 1-based: a 3x3 matrix A is (a1..a9) with
a1, a5, a9 on the diagonal.  For a pair (A, B), each off-diagonal entry of
AB - BA is affine in the four diagonal differences

    X = (a5 - a1,  b5 - b1,  a9 - a1,  b9 - b1),

so commuting is equivalent to M X = Y for a 6x4 matrix M built from the
off-diagonal entries and a vector Y of 2x2 cross-determinants
D(i, j) = a_i*b_j - a_j*b_i.  The hard-coded rows below follow the sign
convention under which rows 1-4 of M X - Y reproduce the (1,2), (2,1),
(1,3), (3,1) commutator entries and rows 5-6 their (3,2), (2,3) negatives.
Partitioning commuting pairs by rank(M) in 0..4 is exact and is where the
even/odd structure of the counting problem lives.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import get_context

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvariantViolation,
    UnsupportedDimension,
)
from .oracle import MeetInMiddle3, WorkBudget, resolve_threads, states_3x3

IntMatrix = list[list[int]]

# Prime modulus for the vectorized rank path.  Reducing an integer matrix
# mod p preserves every minor that is smaller than p in absolute value, so
# as long as the Hadamard bound of the matrix stays below p the mod-p rank
# *is* the rational rank -- an exact argument, not a probabilistic one.
_RANK_PRIME = 2**31 - 1


def _as_square(mat, name: str) -> list[list[int]]:
    rows = [list(map(int, row)) for row in mat]
    d = len(rows)
    if d == 0 or any(len(row) != d for row in rows):
        raise DimensionMismatch(f"{name} must be square and non-empty")
    return rows


def commutator(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """AB - BA in exact integer arithmetic."""
    am = _as_square(a, "A")
    bm = _as_square(b, "B")
    d = len(am)
    if len(bm) != d:
        raise DimensionMismatch(f"A is {d}x{d} but B is {len(bm)}x{len(bm)}")
    return [
        [
            sum(am[i][k] * bm[k][j] - bm[i][k] * am[k][j] for k in range(d))
            for j in range(d)
        ]
        for i in range(d)
    ]


def cross_det(a: IntMatrix, b: IntMatrix, i: int, j: int) -> int:
    """D(i, j) = a_i*b_j - a_j*b_i on the row-major flattenings (1-based).

    Antisymmetric in (i, j); vanishes on the diagonal i == j.
    """
    am = _as_square(a, "A")
    bm = _as_square(b, "B")
    d = len(am)
    if len(bm) != d:
        raise DimensionMismatch(f"A is {d}x{d} but B is {len(bm)}x{len(bm)}")
    flat_a = [x for row in am for x in row]
    flat_b = [x for row in bm for x in row]
    if not (1 <= i <= d * d and 1 <= j <= d * d):
        raise IndexOutOfRange(f"indices must lie in 1..{d * d}, got ({i}, {j})")
    return flat_a[i - 1] * flat_b[j - 1] - flat_a[j - 1] * flat_b[i - 1]


def matrix_rank_exact(rows) -> int:
    """Rank over the rationals by fraction-free elimination (cross-multiply,
    never divide).  Entries grow, but Python integers are exact at any size;
    this is the reference the fast batched path is checked against."""
    m = [list(map(int, row)) for row in rows]
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    for col in range(n_cols):
        piv = next((r for r in range(rank, n_rows) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][col]
        for r in range(rank + 1, n_rows):
            f = m[r][col]
            if f:
                m[r] = [pv * x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
        if rank == min(n_rows, n_cols):
            break
    return rank


def batched_rank(mats: np.ndarray, prime: int = _RANK_PRIME) -> np.ndarray:
    """Exact ranks of a (batch, R, C) int64 stack, vectorized.

    Works mod `prime` with fraction-free row operations; valid because every
    minor is bounded via Hadamard by (max|entry| * sqrt(k))^k, and we refuse
    inputs where that bound reaches the modulus.
    """
    if mats.ndim != 3:
        raise ValueError("expected a (batch, rows, cols) stack")
    n_batch, n_rows, n_cols = mats.shape
    if n_batch == 0:
        return np.zeros(0, dtype=np.int64)
    k = min(n_rows, n_cols)
    ma = int(np.abs(mats).max(initial=0))
    if (ma * ma * k) ** k >= prime * prime:
        raise ValueError(f"entries up to {ma} overflow the mod-{prime} rank path")
    m = mats.astype(np.int64) % prime
    rank = np.zeros(n_batch, dtype=np.int64)
    used = np.zeros((n_batch, n_rows), dtype=bool)
    for col in range(n_cols):
        nz = (m[:, :, col] != 0) & ~used
        has = nz.any(axis=1)
        if not has.any():
            continue
        bidx = np.flatnonzero(has)
        pr = np.argmax(nz[bidx], axis=1)
        sub = m[bidx]
        rows_idx = np.arange(len(bidx))
        pivrows = sub[rows_idx, pr]          # (Bh, C)
        pivvals = pivrows[:, col]            # (Bh,)
        colvals = sub[:, :, col]             # (Bh, R)
        new = (pivvals[:, None, None] * sub - colvals[:, :, None] * pivrows[:, None, :]) % prime
        new = np.where(used[bidx][:, :, None], sub, new)
        new[rows_idx, pr] = pivrows
        m[bidx] = new
        used[bidx, pr] = True
        rank[bidx] += 1
    return rank


# --- the 3x3 linear system -----------------------------------------------


@dataclass(frozen=True)
class CommutatorSystem:
    """The 6x4 system M X = Y attached to a 3x3 pair, with its exact rank."""

    m_matrix: tuple[tuple[int, int, int, int], ...]
    y_vector: tuple[int, int, int, int, int, int]
    rank: int


def _flatten3(mat, name: str) -> list[int]:
    rows = _as_square(mat, name)
    if len(rows) != 3:
        raise DimensionMismatch(f"{name} must be 3x3")
    return [x for row in rows for x in row]


def build_system_3x3(a: IntMatrix, b: IntMatrix) -> CommutatorSystem:
    """Assemble M and Y for a 3x3 pair and rank M over the rationals.

    Row r of M X - Y equals, in order, the (1,2), (2,1), (1,3), (3,1)
    entries of AB - BA and the negated (3,2), (2,3) entries, with
    X = (a5-a1, b5-b1, a9-a1, b9-b1); so a pair commutes exactly when its
    X solves the system and its diagonal-free cross products agree.
    """
    fa = _flatten3(a, "A")
    fb = _flatten3(b, "B")
    _, a2, a3, a4, _, a6, a7, a8, _ = fa
    _, b2, b3, b4, _, b6, b7, b8, _ = fb
    m = (
        (-b2, a2, 0, 0),
        (b4, -a4, 0, 0),
        (0, 0, -b3, a3),
        (0, 0, b7, -a7),
        (b8, -a8, -b8, a8),
        (-b6, a6, b6, -a6),
    )
    y = (
        a8 * b3 - a3 * b8,
        a7 * b6 - a6 * b7,
        a6 * b2 - a2 * b6,
        a4 * b8 - a8 * b4,
        a7 * b2 - a2 * b7,
        a4 * b3 - a3 * b4,
    )
    return CommutatorSystem(m_matrix=m, y_vector=y, rank=matrix_rank_exact(m))


def check_offdiag_constraint(a: IntMatrix, b: IntMatrix) -> tuple[int, int, int]:
    """The triple (a2*b4 - a4*b2, a7*b3 - a3*b7, a6*b8 - a8*b6).

    For a commuting pair all three agree (they are what the vanishing of the
    diagonal entries of AB - BA forces), and when the pair's system has rank
    2 or 3 they all vanish.
    """
    fa = _flatten3(a, "A")
    fb = _flatten3(b, "B")
    return (
        fa[1] * fb[3] - fa[3] * fb[1],
        fa[6] * fb[2] - fa[2] * fb[6],
        fa[5] * fb[7] - fa[7] * fb[5],
    )


# --- rank classification over the whole box --------------------------------


@dataclass(frozen=True)
class RankClassCounts:
    """Commuting pairs in the box, partitioned by rank(M) in 0..4."""

    n: int
    s: tuple[int, int, int, int, int]

    def total(self) -> int:
        return sum(self.s)


def _pair_systems(a_flat: np.ndarray, bs: np.ndarray):
    """Vectorized M (k,6,4), X (k,4), Y (k,6) for one A against its partners."""
    a2, a3, a4, a6, a7, a8 = (int(a_flat[i]) for i in (1, 2, 3, 5, 6, 7))
    b2, b3, b4 = bs[:, 1], bs[:, 2], bs[:, 3]
    b6, b7, b8 = bs[:, 5], bs[:, 6], bs[:, 7]
    k = len(bs)
    m = np.zeros((k, 6, 4), dtype=np.int64)
    m[:, 0, 0] = -b2
    m[:, 0, 1] = a2
    m[:, 1, 0] = b4
    m[:, 1, 1] = -a4
    m[:, 2, 2] = -b3
    m[:, 2, 3] = a3
    m[:, 3, 2] = b7
    m[:, 3, 3] = -a7
    m[:, 4, 0] = b8
    m[:, 4, 1] = -a8
    m[:, 4, 2] = -b8
    m[:, 4, 3] = a8
    m[:, 5, 0] = -b6
    m[:, 5, 1] = a6
    m[:, 5, 2] = b6
    m[:, 5, 3] = -a6
    x = np.empty((k, 4), dtype=np.int64)
    x[:, 0] = int(a_flat[4]) - int(a_flat[0])
    x[:, 1] = bs[:, 4] - bs[:, 0]
    x[:, 2] = int(a_flat[8]) - int(a_flat[0])
    x[:, 3] = bs[:, 8] - bs[:, 0]
    y = np.empty((k, 6), dtype=np.int64)
    y[:, 0] = a8 * b3 - a3 * b8
    y[:, 1] = a7 * b6 - a6 * b7
    y[:, 2] = a6 * b2 - a2 * b6
    y[:, 3] = a4 * b8 - a8 * b4
    y[:, 4] = a7 * b2 - a2 * b7
    y[:, 5] = a4 * b3 - a3 * b4
    return m, x, y


def _classify_range(n: int, lo: int, hi: int, check_system: bool) -> np.ndarray:
    mim = MeetInMiddle3(n)
    counts = np.zeros(5, dtype=np.int64)
    pend_m: list[np.ndarray] = []
    pend_x: list[np.ndarray] = []
    pend_y: list[np.ndarray] = []
    pending = 0

    def flush() -> None:
        nonlocal pending
        if not pend_m:
            return
        m = np.concatenate(pend_m)
        if check_system:
            x = np.concatenate(pend_x)
            y = np.concatenate(pend_y)
            mx = np.einsum("krc,kc->kr", m, x)
            if not np.array_equal(mx, y):
                raise InvariantViolation(
                    "a commuting pair violated M X = Y; the hard-coded system "
                    "rows disagree with the commutator"
                )
        counts[:] += np.bincount(batched_rank(m), minlength=5)
        pend_m.clear()
        pend_x.clear()
        pend_y.clear()
        pending = 0

    for block in range(lo, hi, 65536):
        for a_flat in mim.a_batch(block, min(block + 65536, hi)):
            bs = mim.partners_for_a(a_flat)
            if not len(bs):
                continue
            m, x, y = _pair_systems(a_flat, bs)
            pend_m.append(m)
            if check_system:
                pend_x.append(x)
                pend_y.append(y)
            pending += len(bs)
            if pending >= 65536:
                flush()
    flush()
    return counts


def classify_commuting_3x3(
    n: int,
    budget: WorkBudget | None = None,
    threads: int | None = None,
    check_system: bool = True,
) -> RankClassCounts:
    """Partition every commuting 3x3 pair in the box by the rank of its M.

    Enumerates via the meet-in-the-middle oracle (same state count, so the
    same budget gate), builds each pair's system, and ranks it exactly.
    With check_system=True every pair is additionally required to satisfy
    M X = Y before being counted.  The class totals sum to the oracle's
    commuting-pair count; rank 0 is exactly the both-diagonal pairs,
    (2n+1)^6 of them.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    budget = budget or WorkBudget()
    budget.require(states_3x3(n), "3x3 rank classification")
    n_a = (2 * n + 1) ** 9
    workers = min(resolve_threads(threads), n_a)
    if workers <= 1:
        counts = _classify_range(n, 0, n_a, check_system)
    else:
        bounds = np.linspace(0, n_a, workers + 1, dtype=np.int64)
        args = [
            (n, int(bounds[i]), int(bounds[i + 1]), check_system)
            for i in range(workers)
        ]
        with get_context("fork").Pool(workers) as pool:
            counts = sum(pool.starmap(_classify_range, args))
    return RankClassCounts(n=n, s=tuple(int(c) for c in counts))


# --- lower bounds -----------------------------------------------------------


def lower_bound_E(d: int, n: int) -> int:
    """E_d(n) = sum over x in [-2n, 2n] of (2n+1-|x|)^d: the number of ways
    to give two d-tuples in [-n, n]^d a common difference, exactly."""
    if not 2 <= d <= 6:
        raise ValueError("d must lie in 2..6")
    if n < 0:
        raise ValueError("n must be >= 0")
    side = 2 * n + 1
    return sum((side - abs(x)) ** d for x in range(-2 * n, 2 * n + 1))


def lower_bound_certificate(d: int, n: int) -> int:
    """A certified lower bound for the commuting-pair count from two disjoint
    families: pairs (A, A + lambda*I) with all off-diagonal entries of A
    nonzero, and pairs where either side is a scalar matrix (counted twice,
    both-scalar overlap removed):

        (2n)^(d^2-d) * E_d(n) + 2*(2n+1)^(d^2+1) - (2n+1)^2.
    """
    if d not in (2, 3):
        raise UnsupportedDimension(f"certificate implemented for d in {{2, 3}}, got {d}")
    if n < 0:
        raise ValueError("n must be >= 0")
    side = 2 * n + 1
    return (2 * n) ** (d * d - d) * lower_bound_E(d, n) + 2 * side ** (d * d + 1) - side**2


# --- the 4x4 infeasibility demonstration ------------------------------------

# Off-diagonal patterns of the demonstration pair (row-major, 0 on the
# diagonal positions, which are supplied by the caller).
_DEMO_A_OFF = (
    (0, 0, 0, 0),
    (1, 0, 0, 0),
    (1, 1, 0, 3),
    (1, 1, 2, 0),
)
_DEMO_B_OFF = (
    (0, 1, 1, -2),
    (0, 0, 0, 1),
    (0, 1, 0, 2),
    (0, 0, 1, 0),
)

_DEMO_PAIR_ORDER = (
    (1, 2), (2, 1), (1, 3), (3, 1), (1, 4), (4, 1),
    (2, 3), (3, 2), (2, 4), (4, 2), (3, 4), (4, 3),
)


def _det_exact(rows) -> int:
    """Determinant of a small square integer matrix by cofactor expansion."""
    m = [list(map(int, r)) for r in rows]
    d = len(m)
    if d == 1:
        return m[0][0]
    total = 0
    for j in range(d):
        if m[0][j]:
            minor = [r[:j] + r[j + 1 :] for r in m[1:]]
            total += (-1) ** j * m[0][j] * _det_exact(minor)
    return total


def inconsistency_demo_4x4(
    a1: int, a6: int, a11: int, a16: int, b1: int, b6: int, b11: int, b16: int
) -> dict:
    """Build the fixed 4x4 pair (free diagonals supplied by the caller) whose
    commutator has identically vanishing diagonal, and show that its analogue
    of the M X = Y system is globally infeasible.

    The twelve off-diagonal equations are ordered (1,2), (2,1), (1,3), (3,1),
    (1,4), (4,1), (2,3), (3,2), (2,4), (4,2), (3,4), (4,3) and projected onto
    X = (a22-a11, b22-b11, ..., b44-b11); under that ordering the seventh row
    of M is zero while Y_7 = 1, and the first six rows alone determine X
    uniquely (their determinant is -2).  Infeasibility itself is checked
    ordering-free: rank(M) < rank([M | Y]) by exact elimination.
    """
    a = [list(row) for row in _DEMO_A_OFF]
    b = [list(row) for row in _DEMO_B_OFF]
    for idx, (da, db) in enumerate(((a1, b1), (a6, b6), (a11, b11), (a16, b16))):
        a[idx][idx] = int(da)
        b[idx][idx] = int(db)

    comm = commutator(a, b)
    diagonal_vanishes = all(comm[i][i] == 0 for i in range(4))

    m_rows = []
    y_vec = []
    for i, j in _DEMO_PAIR_ORDER:
        row = [0] * 6
        # X packs (alpha_2, beta_2, alpha_3, beta_3, alpha_4, beta_4) with
        # alpha_t = a_tt - a_11; the (i, j) commutator entry contributes
        # a_ij*(beta_j - beta_i) - b_ij*(alpha_j - alpha_i) plus pure
        # off-diagonal cross terms, which are moved to Y.
        if j != 1:
            row[2 * (j - 2)] -= b[i - 1][j - 1]
            row[2 * (j - 2) + 1] += a[i - 1][j - 1]
        if i != 1:
            row[2 * (i - 2)] += b[i - 1][j - 1]
            row[2 * (i - 2) + 1] -= a[i - 1][j - 1]
        y = -sum(
            a[i - 1][k] * b[k][j - 1] - b[i - 1][k] * a[k][j - 1]
            for k in range(4)
            if k not in (i - 1, j - 1)
        )
        m_rows.append(row)
        y_vec.append(y)

    augmented = [row + [y] for row, y in zip(m_rows, y_vec)]
    return {
        "diagonal_vanishes": diagonal_vanishes,
        "seventh_row_zero": not any(m_rows[6]),
        "seventh_y": y_vec[6],
        "first_six_determinant": _det_exact(m_rows[:6]),
        "infeasible": matrix_rank_exact(augmented) > matrix_rank_exact(m_rows),
    }
