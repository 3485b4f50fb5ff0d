"""3x3 commutator machinery: the linear system in the diagonal differences,
exact rank classification of commuting pairs, lower-bound certificates, and
the 4x4 demonstration that the same system can be globally infeasible.

Entries are flattened row-major, 1-based: a 3x3 matrix A is (a1..a9) with
a1, a5, a9 on the diagonal.  For a pair (A, B), each off-diagonal entry of
AB - BA is affine in the four diagonal differences

    X = (a5 - a1,  b5 - b1,  a9 - a1,  b9 - b1),

so the off-diagonal entries vanish exactly when M X = Y for a 6x4 matrix M
built from the off-diagonal entries and a vector Y of 2x2
cross-determinants D(i, j) = a_i*b_j - a_j*b_i.  One builder,
_pair_systems, writes the system down for any d from the commutator
formula and a table of (i, j, sign) rows: for 3x3 the rows are the (1,2),
(2,1), (1,3), (3,1) commutator entries and the negated (3,2), (2,3) ones;
the 4x4 demonstration takes its twelve off-diagonal entries unsigned.
Partitioning commuting pairs by rank(M) in 0..4 is exact and is where the
even/odd structure of the counting problem lives.

M and Y read only off-diagonal entries, so the partners of A and rank(M)
are the same for every A + tI.  The classification runs over one A per
such class, the A whose smallest diagonal entry is -n, weighted by the
2n + 1 - spread matrices A + tI of the box it stands for, and within those
over one class per orbit of a group of order 96: the 24 distinct
conjugations A -> P A P^-1 by signed permutation matrices P (P and -P act
alike), each optionally followed by transposition and by A -> -A, with -A
shifted by a multiple of I back into the class set.  Letting the same
conjugation and transposition act on B (and leaving B alone under
negation) maps the box of B onto itself and the B commuting with A onto
the B commuting with g.A.  rank(M) is kept too: M X is the part of AB - BA
that depends on the diagonals, the linear map (D, E) -> [D, B_o] + [A_o, E]
from pairs of diagonal matrices, modulo scalars, to off-diagonal matrices,
where A_o and B_o are the off-diagonal parts.  Conjugation by P carries
diagonal and off-diagonal matrices to their own kinds and the map for the
conjugated pair is the conjugate of this one; transposition turns the map
into (D, E) -> -(its value)^T; and A -> -A turns it into (D, E) -> (its
value at (D, -E)).  Each is the map composed with invertible maps on both
sides, so its rank, and with it the histogram of rank(M) over the partners
of A, is the same for every A in an orbit.  Each classification worker
canonicalizes the classes among its own range of ids, a bounded sub-range
at a time.

The scalar class -nI never enters the join.  Every B commutes with it, and
M reads only off-diagonal entries, so its rank histogram is (2n+1)^3, for
B's diagonals, times the histogram of the (2n+1)^6 off-diagonal B, whose
systems are built, checked and ranked once.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .core import np
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvariantViolation,
    UnsupportedDimension,
)
from .oracle import MeetInMiddle3, WorkBudget, _parallel_over_a, a_rows

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


def batched_rank(mats: np.ndarray) -> np.ndarray:
    """Exact ranks of a (batch, R, C) int64 stack, vectorized.

    Works mod _RANK_PRIME with fraction-free row operations; valid because
    every minor is bounded via Hadamard by (max|entry| * sqrt(k))^k, and we
    refuse inputs where that bound reaches the modulus.
    """
    if mats.ndim != 3:
        raise ValueError("expected a (batch, rows, cols) stack")
    n_batch, n_rows, n_cols = mats.shape
    if n_batch == 0:
        return np.zeros(0, dtype=np.int64)
    k = min(n_rows, n_cols)
    ma = int(np.abs(mats).max(initial=0))
    if (ma * ma * k) ** k >= _RANK_PRIME * _RANK_PRIME:
        raise ValueError(f"entries up to {ma} overflow the mod-{_RANK_PRIME} rank path")
    m = mats.astype(np.int64) % _RANK_PRIME
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
        new = (pivvals[:, None, None] * sub - colvals[:, :, None] * pivrows[:, None, :]) % _RANK_PRIME
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


# The rows of the 3x3 system: the (i, j) entry of AB - BA (1-based) and the
# sign it enters M X - Y with.
_ROWS_3X3 = ((1, 2, 1), (2, 1, 1), (1, 3, 1), (3, 1, 1), (3, 2, -1), (2, 3, -1))


def _diagonal_differences(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """X (k, 2d-2) of k pairs of d x d matrices, A = a[i] and B = b[i] as
    (k, d, d) stacks: (alpha_2, beta_2, ..., alpha_d, beta_d) with
    alpha_t = a_tt - a_11 and beta_t = b_tt - b_11."""
    alpha = a.diagonal(axis1=1, axis2=2)[:, 1:] - a[:, :1, 0]
    beta = b.diagonal(axis1=1, axis2=2)[:, 1:] - b[:, :1, 0]
    return np.stack([alpha, beta], axis=2).reshape(len(b), -1)


def _pair_systems(a: np.ndarray, b: np.ndarray, rows=_ROWS_3X3):
    """M (k, R, 2d-2), X (k, 2d-2), Y (k, R) for k pairs of d x d matrices,
    A = a[i] and B = b[i] given as flattened rows, in the dtype of b.

    X is _diagonal_differences(A, B).  The (i, j) entry of AB - BA is
    a_ij (beta_j - beta_i) - b_ij (alpha_j - alpha_i) plus the terms free of
    the diagonal, sum_{k != i, j} (a_ik b_kj - b_ik a_kj); the row (i, j,
    sign) of M takes sign times the first part and Y takes minus sign times
    the second, so row r of M X - Y is sign times that entry.  For i != j
    both parts read only off-diagonal entries, so M and Y do not depend on
    the diagonals."""
    k = len(b)
    d = math.isqrt(b.shape[1])
    a, b = a.reshape(k, d, d), b.reshape(k, d, d)
    x = _diagonal_differences(a, b)
    m = np.zeros((k, len(rows), 2 * d - 2), dtype=b.dtype)
    y = np.zeros((k, len(rows)), dtype=b.dtype)
    for r, (i, j, sign) in enumerate(rows):
        i, j = i - 1, j - 1
        if j:
            m[:, r, 2 * j - 2] -= sign * b[:, i, j]
            m[:, r, 2 * j - 1] += sign * a[:, i, j]
        if i:
            m[:, r, 2 * i - 2] += sign * b[:, i, j]
            m[:, r, 2 * i - 1] -= sign * a[:, i, j]
        others = [t for t in range(d) if t not in (i, j)]
        free = a[:, i, others] * b[:, others, j] - b[:, i, others] * a[:, others, j]
        y[:, r] = -sign * free.sum(axis=1)
    return m, x, y


def build_system_3x3(a: IntMatrix, b: IntMatrix) -> CommutatorSystem:
    """Assemble M and Y for a 3x3 pair and rank M over the rationals.

    Row r of M X - Y equals, in order, the (1,2), (2,1), (1,3), (3,1)
    entries of AB - BA and the negated (3,2), (2,3) entries, with
    X = (a5-a1, b5-b1, a9-a1, b9-b1); so a pair commutes exactly when its
    X solves the system and its diagonal-free cross products agree.  The
    rows are those of the classification, _pair_systems on a one-pair
    batch, in Python integers.
    """
    fa = np.array([_flatten3(a, "A")], dtype=object)
    fb = np.array([_flatten3(b, "B")], dtype=object)
    m, _, y = _pair_systems(fa, fb)
    m_rows = tuple(tuple(row) for row in m[0].tolist())
    return CommutatorSystem(
        m_matrix=m_rows, y_vector=tuple(y[0].tolist()), rank=matrix_rank_exact(m_rows)
    )


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


# --- the symmetry group of the count ------------------------------------------


@functools.cache
def orbit_group() -> tuple[np.ndarray, np.ndarray]:
    """The 96 maps A -> g.A of the group generated by conjugation with
    signed permutation matrices, transposition and negation, as (src, sign),
    two read-only (96, 9) arrays with (g.A)[k] = sign[g, k] * A[src[g, k]]
    on row-major flattenings.  Map g + 48 is map g followed by negation.
    Built on first use."""
    actions = set()
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            # (P A P^-1)[i, j] = s_i s_j A[perm[i], perm[j]], as (source, sign)
            conj = [(3 * p + q, signs[i] * signs[j]) for i, p in enumerate(perm)
                    for j, q in enumerate(perm)]
            transposed = [conj[3 * j + i] for i in range(3) for j in range(3)]
            actions.add(tuple(conj))
            actions.add(tuple(transposed))
    table = np.array(sorted(actions), dtype=np.int64)
    src = np.concatenate([table[:, :, 0]] * 2)
    sign = np.concatenate([table[:, :, 1], -table[:, :, 1]])
    if len({(tuple(s), tuple(e)) for s, e in zip(src.tolist(), sign.tolist())}) != 96:
        raise InvariantViolation(f"the orbit group has {len(src)} maps, not 96 distinct ones")
    src.flags.writeable = sign.flags.writeable = False
    return src, sign


# The positions of the diagonal and off-diagonal entries in a flattened 3x3
# matrix.
_DIAGONAL = [0, 4, 8]
_OFF_DIAGONAL = [1, 2, 3, 5, 6, 7]

# Ids per sub-range of the canonicalization: its image table of the classes
# among them takes at most 768 bytes a row, 3 MB at 2^12 rows.
_CANON_ROWS = 2**12


def _class_rows(n: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """The ids among lo..hi-1 of the A whose smallest diagonal entry is -n,
    one per class A + tI of the box, and their flattened rows."""
    ids = np.arange(lo, hi)
    a = a_rows(n, ids)
    keep = a[:, _DIAGONAL].min(axis=1) == -n
    return ids[keep], a[keep]


def _orbit_images(n: int, a: np.ndarray) -> np.ndarray:
    """id(g.A) for the class rows a (rows) and every g of orbit_group()
    (columns), each image shifted by a multiple of I back into the class
    set.  id(g.A) is linear in A, so the first 48 columns are one (48, 9) @
    (9, rows) int64 product; they only permute the diagonal, so they need
    no shift.  Map g + 48 negates map g, and id(-A) = (2n+1)^9 - 1 - id(A),
    as every digit t of id(A) becomes 2n - t; -A has smallest diagonal
    entry -max diag A, so (max diag A - n) I brings it back.  The array is
    column-major: each map's images are contiguous."""
    src, sign = orbit_group()
    half = len(src) // 2
    if not (np.array_equal(src[half:], src[:half]) and np.array_equal(sign[half:], -sign[:half])):
        raise InvariantViolation("the orbit group's second half is not its first one negated")
    place = (2 * n + 1) ** np.arange(8, -1, -1, dtype=np.int64)
    weights = np.zeros((half, 9), dtype=np.int64)
    weights[np.arange(half)[:, None], src[:half]] = sign[:half] * place
    images = np.empty((2 * half, len(a)), dtype=np.int64)
    np.matmul(weights, a.T, out=images[:half])
    images[:half] += n * int(place.sum())
    np.subtract((2 * n + 1) ** 9 - 1, images[:half], out=images[half:])
    images[half:] += (a[:, _DIAGONAL].max(axis=1) - n) * int(place[_DIAGONAL].sum())
    return images.T


def orbit_count(n: int) -> int:
    """The number of orbits of the classes under orbit_group() by
    Burnside's lemma: the mean over g of the classes g fixes.  g keeps the
    diagonal and the off-diagonal entries apart, so a class it fixes is one
    of the (2n+1)^(6 - rank(Q_g - I)) off-diagonal parts fixed by Q_g, the
    6x6 signed permutation g makes of them, with one of the diagonal
    triples of minimum -n that g fixes, after the shift when g negates."""
    src, sign = orbit_group()
    if not np.isin(src[:, _DIAGONAL], _DIAGONAL).all():
        raise InvariantViolation("the orbit group mixes diagonal and off-diagonal entries")
    p = sign[:, :, None] * np.eye(9, dtype=np.int64)[src]
    ranks = batched_rank(p[:, _OFF_DIAGONAL][:, :, _OFF_DIAGONAL] - np.eye(6, dtype=np.int64))
    side = 2 * n + 1
    triples = a_rows(n, np.arange(side**3), 3)
    triples = triples[triples.min(axis=1) == -n]
    # Diagonal positions 0, 4, 8 are entries 0, 1, 2 of a triple.
    images = sign[:, None, _DIAGONAL] * triples[:, src[:, _DIAGONAL] // 4].transpose(1, 0, 2)
    negated = np.arange(len(src)) >= len(src) // 2
    images[negated] += (triples.max(axis=1) - n)[:, None]
    fixed = (images == triples).all(axis=2).sum(axis=1)
    return sum(int(f) * side ** (6 - int(r)) for f, r in zip(fixed, ranks)) // len(src)


def _canonical_in(n: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, int]:
    """orbit_representatives over one sub-range, from one image table; a
    function of its own, so that each table is freed before the next one
    is built."""
    own, a = _class_rows(n, lo, hi)
    images = _orbit_images(n, a)
    mine = images.min(axis=1) == own
    orbits = np.sort(images[mine], axis=1)
    distinct = 1 + (orbits[:, 1:] != orbits[:, :-1]).sum(axis=1)
    if (distinct * (orbits == own[mine, None]).sum(axis=1) != images.shape[1]).any():
        raise InvariantViolation("3x3 orbit sizes disagree with orbit-stabilizer")
    return own[mine], distinct, len(own)


def orbit_representatives(n: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The canonical classes among the ids lo..hi-1: the A whose smallest
    diagonal entry is -n and which are their own smallest image under
    orbit_group(), their orbit sizes, the number of distinct images, and
    the number of classes canonicalized.  InvariantViolation unless each
    size times the number of g that fix A is the group order
    (orbit-stabilizer).  The images are computed over sub-ranges of at
    most _CANON_ROWS ids, so one image table at a time is held however
    wide the range."""
    empty = np.zeros(0, dtype=np.int64)
    reps, sizes, admitted = zip((empty, empty, 0), *(
        _canonical_in(n, s, min(s + _CANON_ROWS, hi)) for s in range(lo, hi, _CANON_ROWS)
    ))
    return np.concatenate(reps), np.concatenate(sizes), sum(admitted)


# --- rank classification over the whole box --------------------------------


@dataclass(frozen=True)
class RankClassCounts:
    """Commuting pairs in the box, partitioned by rank(M) in 0..4."""

    n: int
    s: tuple[int, int, int, int, int]

    def total(self) -> int:
        return sum(self.s)


# Commuting pairs per batch of the M X = Y check, and systems per batch of
# batched_rank.
_RANK_ROWS = 65536

# Off-diagonal B per batch of _scalar_histogram.  Its systems are built from
# whole pairs, about 1.5 KB each in the (k, 6, 4) int64 temporaries of
# _pair_systems and batched_rank, so 2^12 of them stay near 6 MB.  In
# _RANK_ROWS batches its traced peak was 22.5 MB at N = 2 (one batch of all
# 5^6) and 94 MB at N = 3; in these it is 6.0 MB at both, and N = 2 took
# 28 ms against 52 ms.
_SCALAR_ROWS = 2**12

def _b_rows(mim: MeetInMiddle3, i1: np.ndarray, i2: np.ndarray) -> np.ndarray:
    """The flattened B = (h1[i1], h2[i2]) of the join's index pairs."""
    return np.concatenate([mim.h1[i1], mim.h2[i2]], axis=1)


def _require_solved(m: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
    """InvariantViolation unless every commuting pair's X solves its M X = Y."""
    if not np.array_equal(np.einsum("krc,kc->kr", m, x), y):
        raise InvariantViolation(
            "a commuting pair violated M X = Y; the system rows disagree with the commutator"
        )


def _scalar_histogram(n: int, a_flat: np.ndarray) -> np.ndarray:
    """The rank histogram of the (2n+1)^6 systems of the scalar A = a_flat
    with each off-diagonal B, a _SCALAR_ROWS batch at a time.  B takes A's
    diagonal, so every pair commutes and its X is 0; each system must still
    satisfy M X = Y before it is ranked."""
    count = (2 * n + 1) ** 6
    hist = np.zeros(5, dtype=np.int64)
    for s in range(0, count, _SCALAR_ROWS):
        off = a_rows(n, np.arange(s, min(s + _SCALAR_ROWS, count)), 6)
        a = np.repeat(a_flat[None, :], len(off), axis=0)
        b = a.copy()
        b[:, _OFF_DIAGONAL] = off
        m, x, y = _pair_systems(a, b)
        _require_solved(m, x, y)
        hist += np.bincount(batched_rank(m), minlength=5)
    return hist


def _classify_range(n: int, lo: int, hi: int) -> np.ndarray:
    """Rank classes of the pairs of the canonical classes among ids
    lo..hi-1, each pair weighted by its class's orbit size times its
    weight 2n + 1 - spread, the number of A + tI in the box, then the
    number of those classes, the number of classes canonicalized, the sum
    of their orbit sizes and the sum of orbit size times weight.

    Both the partners of A and rank(M) are the same for every A + tI, as M
    and Y read only off-diagonal entries.  The scalar class -nI, of weight
    2n + 1 and with every off-diagonal entry 0, stays out of the join:
    every B commutes with it, so its pairs' classes are (2n+1)^3, for B's
    diagonals, times the rank histogram of the off-diagonal B
    (_scalar_histogram).

    The other canonical classes are joined max_rows at a time.  B's
    off-diagonal entries are digits 1..3 of i1 and 0..2 of i2 in base
    2n+1, so M and Y are built once for each distinct (row, off-diagonal
    B) of a block, its system.  Every pair's X, from the diagonals, is
    checked against M X = Y of its system, and each system is ranked once
    and its rank given to all its pairs."""
    mim = MeetInMiddle3(n)
    cube = mim.side**3
    reps, sizes, admitted = orbit_representatives(n, lo, hi)
    a = a_rows(n, reps)
    weighted = sizes * (n + 1 - a[:, _DIAGONAL].max(axis=1))
    scalar = (a == -n * np.eye(3, dtype=np.int64).ravel()).all(axis=1)
    counts = np.zeros(9, dtype=np.int64)
    counts[5:] = len(reps), admitted, sizes.sum(), weighted.sum()
    if scalar.any():
        counts[:5] = weighted[scalar].sum() * cube * _scalar_histogram(n, a[scalar][0])
    a, weighted = a[~scalar], weighted[~scalar]
    for block in range(0, len(a), mim.max_rows):
        stop = block + mim.max_rows
        a_block = a[block:stop]
        row, i1, i2 = mim.partner_pairs(a_block)
        key = (row * cube + i1 // mim.side % cube) * cube + i2 // mim.side
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        m, _, y = _pair_systems(a_block[row[first]], _b_rows(mim, i1[first], i2[first]))
        for s in range(0, len(row), _RANK_ROWS):
            sel = slice(s, s + _RANK_ROWS)
            x = _diagonal_differences(
                a_block[row[sel]].reshape(-1, 3, 3),
                _b_rows(mim, i1[sel], i2[sel]).reshape(-1, 3, 3),
            )
            cls = inverse[sel]
            _require_solved(m[cls], x, y[cls])
        ranks = np.concatenate([
            batched_rank(m[s : s + _RANK_ROWS]) for s in range(0, len(m), _RANK_ROWS)
        ])
        hist = np.bincount(5 * row + ranks[inverse], minlength=5 * len(a_block))
        counts[:5] += weighted[block:stop] @ hist.reshape(-1, 5)
    return counts


def classify_commuting_3x3(
    n: int,
    budget: WorkBudget | None = None,
    threads: int | None = None,
) -> RankClassCounts:
    """Partition every commuting 3x3 pair in the box by the rank of its M.

    The partners of A and rank(M) depend on A only modulo scalars, so the
    classification runs over one A per class A + tI, the A whose smallest
    diagonal entry is -n, (2n+1)^9 - (2n)^3 (2n+1)^6 of them; a class of
    diagonal spread max - min stands for 2n + 1 - spread matrices of the
    box.  The group of orbit_group(), with the shift back into the class
    set after a negation, maps the box of B onto itself and keeps both the
    set of B commuting with A and rank(M), so each worker enumerates the
    canonical classes among its ids, weighting their pairs by orbit size
    times weight.  The canonical classes must number orbit_count(n), every
    class must be canonicalized once, their orbit sizes must sum to the
    number of classes, and size times weight to (2n+1)^9.  Every pair must
    satisfy M X = Y before its system is ranked exactly.  The classes sum
    to the oracle's count; rank 0 is exactly the (2n+1)^6 both-diagonal
    pairs.

    Before any work the budget is charged, in one sum, 96 states per class
    for the canonicalization and (2n+1)^5 + (2n+1)^4 per orbit for the
    joins.  An n past the oracle's key packing (n >= 5) is refused before
    that.
    """
    MeetInMiddle3.key_base(n)
    budget = budget or WorkBudget()
    side = 2 * n + 1
    classes = side**9 - (side - 1) ** 3 * side**6
    orbits = orbit_count(n)
    budget.require(
        len(orbit_group()[0]) * classes + orbits * (side**5 + side**4),
        "3x3 orbit canonicalization and rank classification",
    )
    *counts, found, admitted, total, weighted = _parallel_over_a(_classify_range, n, threads)
    if found != orbits:
        raise InvariantViolation("the canonical 3x3 A disagree with Burnside's orbit count")
    if (admitted, total, weighted) != (classes, classes, side**9):
        raise InvariantViolation(
            f"{admitted} 3x3 classes canonicalized, orbit sizes summing to {total} and "
            f"weighted to {weighted}; want {classes}, {classes} and {side**9}"
        )
    return RankClassCounts(n=n, s=tuple(int(c) for c in counts))


# --- lower bounds -----------------------------------------------------------


def lower_bound_E(d: int, n: int) -> int:
    """E_d(n) = sum over x in [-2n, 2n] of (2n+1-|x|)^d: the number of ways
    to give two d-tuples in [-n, n]^d a common difference, exactly.  It is
    (2n+1)^d + 2 * S_d(2n) with S_k(m) = sum_{u=1}^{m} u^k, and S_0..S_d
    follow in O(d^2) exact steps from (m+1)^(k+1) - 1 = sum_{j<=k} C(k+1, j) S_j(m)."""
    if not 2 <= d <= 6:
        raise ValueError("d must lie in 2..6")
    if n < 0:
        raise ValueError("n must be >= 0")
    m = 2 * n
    sums: list[int] = []
    for k in range(d + 1):
        lower = sum(math.comb(k + 1, j) * s for j, s in enumerate(sums))
        sums.append(((m + 1) ** (k + 1) - 1 - lower) // (k + 1))
    return (m + 1) ** d + 2 * sums[d]


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

# The twelve off-diagonal equations, each with sign +1.
_DEMO_PAIR_ORDER = (
    (1, 2, 1), (2, 1, 1), (1, 3, 1), (3, 1, 1), (1, 4, 1), (4, 1, 1),
    (2, 3, 1), (3, 2, 1), (2, 4, 1), (4, 2, 1), (3, 4, 1), (4, 3, 1),
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
    X = (a22-a11, b22-b11, ..., b44-b11) by the same _pair_systems as the
    3x3 system; under that ordering the seventh row of M is zero while
    Y_7 = 1, and the first six rows alone determine X uniquely (their
    determinant is -2).  Infeasibility itself is checked ordering-free:
    rank(M) < rank([M | Y]) by exact elimination.
    """
    a = [list(row) for row in _DEMO_A_OFF]
    b = [list(row) for row in _DEMO_B_OFF]
    for idx, (da, db) in enumerate(((a1, b1), (a6, b6), (a11, b11), (a16, b16))):
        a[idx][idx] = int(da)
        b[idx][idx] = int(db)

    comm = commutator(a, b)
    diagonal_vanishes = all(comm[i][i] == 0 for i in range(4))

    m, _, y = _pair_systems(
        np.array(a, dtype=object).reshape(1, 16),
        np.array(b, dtype=object).reshape(1, 16),
        _DEMO_PAIR_ORDER,
    )
    m_rows, y_vec = m[0].tolist(), y[0].tolist()
    augmented = [row + [v] for row, v in zip(m_rows, y_vec)]
    return {
        "diagonal_vanishes": diagonal_vanishes,
        "seventh_row_zero": not any(m_rows[6]),
        "seventh_y": y_vec[6],
        "first_six_determinant": _det_exact(m_rows[:6]),
        "infeasible": matrix_rank_exact(augmented) > matrix_rank_exact(m_rows),
    }
