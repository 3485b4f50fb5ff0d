"""Brute-force reference enumerations.

Everything in this module is ground truth by construction: enumerate every
tuple in the stated domain and test the defining condition.  numpy only
vectorizes the loops — no counting shortcut, no shared code with the fast
counters in count2/divisor/padic (those are validated *against* this module).

The 2x2 and 3x3 commuting-pair counts share one meet-in-the-middle join:
the entries of AB - BA are linear in B, so B's entries are split into two
halves, both halves are tabulated for a block of A, and the halves are
joined on the packed values of those entries.  That changes the constant,
not the semantics: every candidate B is still explicitly generated and
every match explicitly counted.

The residue enumerations test each pair's equations in sequence, as a
short-circuit `and`: the first cross product on every pair of a block, and
the later ones only on the pairs that pass it.  That is still a literal
test of every pair; no equation is skipped for a pair that passes the ones
before it.

Work budgets are mandatory and honest: each operation declares how many states
its enumeration visits and refuses (BudgetExceeded) rather than silently
grinding.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass
from multiprocessing import get_context

import numpy as np

from .core import is_prime
from .errors import BudgetExceeded, NotPrime, UnsupportedDimension

DEFAULT_MAX_STATES = 10**10


@dataclass(frozen=True)
class WorkBudget:
    """Cap on the number of enumeration states an oracle call may visit."""

    max_states: int = DEFAULT_MAX_STATES

    def require(self, states: int, what: str) -> None:
        if states > self.max_states:
            raise BudgetExceeded(states, self.max_states, what)


@dataclass(frozen=True)
class ValuationClassCounts:
    """Solution counts bucketed by the minimum p-adic valuation h across the
    six coordinates (capped at n).  Brute enumerations fill `classes` for all
    h in 0..n; the closed-form variant fills h < ceil(n/2) and reports the
    remaining mass as one `residual` bucket."""

    p: int
    n: int
    classes: dict[int, int]
    residual: int | None = None

    def total(self) -> int:
        return sum(self.classes.values()) + (self.residual or 0)


def resolve_threads(threads: int | None = None) -> int:
    """Worker-process count: the explicit argument, else the number of CPUs
    this process may run on (its affinity mask where the platform has one,
    which `taskset` and container CPU sets narrow; the machine's CPU count
    elsewhere)."""
    if threads is not None:
        if threads < 1:
            raise ValueError("thread count must be >= 1")
        return threads
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def grid_tuples(n: int, k: int) -> np.ndarray:
    """All (2n+1)^k tuples over [-n, n], one per row, lexicographic."""
    side = 2 * n + 1
    return (np.indices((side,) * k).reshape(k, -1).T - n).astype(np.int64)


# --- commuting pairs -----------------------------------------------------------


def _coef_tensor(d: int) -> np.ndarray:
    """coef[e, col, a] = coefficient of a_flat[a] in the col-th B-variable's
    coefficient within commutator entry e (row-major flattening).  The
    d^2 - 1 entries are those of AB - BA but (d, d): the commutator is
    traceless, so that one vanishes with the others."""
    coef = np.zeros((d * d - 1, d * d, d * d), dtype=np.int64)
    for e in range(d * d - 1):
        i, j = divmod(e, d)
        for k in range(d):
            coef[e, d * k + j, d * i + k] += 1  # A[i,k] * B[k,j]
            coef[e, d * i + k, d * k + j] -= 1  # -B[i,k] * A[k,j]
    return coef


# Keys per half-tabulation block: a block's keys, and for partner_pairs
# their sorting permutation, are int64 arrays of 2 MB, about one core's L2
# cache on the 2-vCPU Xeon this was tuned on.  There brute_commuting_count(3,
# 1) took 118-122 ms with blocks of 2^16..2^19 keys and 175 ms with 2^20, and
# a 10,000-A slice at N = 2 509-527 ms against 848 ms.  A block must hold
# two rows at n = 4, 2 * (9^5 + 9^4) keys.
_BLOCK_KEYS = 2**18


def a_rows(n: int, ids: np.ndarray) -> np.ndarray:
    """The A matrices (flattened rows) with the given ids in the
    lexicographic enumeration of the box [-n, n]^9."""
    side = 2 * n + 1
    pows = side ** np.arange(8, -1, -1, dtype=np.int64)
    return (np.asarray(ids, dtype=np.int64)[:, None] // pows) % side - n


def _outer_sum(steps: np.ndarray, out: np.ndarray) -> None:
    """out[r, i] = sum_c steps[r, c, t_c] for every row r, where t_0..t_{k-1}
    are the digits of i in base `side` (the last one varies fastest, as in
    grid_tuples): one broadcast sum per axis, the long axis innermost, the
    last one written straight into `out`."""
    rows, k, side = steps.shape
    acc = steps[:, k - 1]
    for c in range(k - 2, 0, -1):
        acc = (steps[:, c, :, None] + acc[:, None, :]).reshape(rows, -1)
    np.add(steps[:, 0, :, None], acc[:, None, :], out=out.reshape(rows, side, -1))


class MeetInMiddle3:
    """Solver for d x d pairs, d = 2 or 3, a block of A at a time: the
    d^2 - 1 independent commutator entries are linear in B, so split B's
    d^2 entries into halves of ceil(d^2 / 2) and floor(d^2 / 2) (5|4 at
    d = 3, 2|2 at d = 2), tabulate both halves, and join on the packed
    value vector.  Exact: every B in the box is generated for every A.

    The packing is linear too: a row's packed coefficient of each
    B-variable is one entry of a @ wmat, so one (rows, d^2) by (d^2, d^2)
    product gives a block's coefficients, and with s = ceil(d^2 / 2), half
    1's keys for A are h1 @ w[:s] + const and half 2's are
    -h2 @ w[s:] + const.  Each half's keys are an outer sum over its grid
    axes of coefficient times value, written straight into one array of
    keys.  Row r of a block is shifted by r * key_span, so no two rows
    share a key, and every key is doubled, plus 1 on half 2, so that
    sorting a row puts each half-1 run of a value right before its half-2
    run; one sort and one pass over the block then find every match.
    `max_rows` keeps the keys below 2^63 and a block near _BLOCK_KEYS keys.

    The name is that of the 3x3 solver this class began as; the benchmark
    under perfbench/ traces its methods by that name, so a rename waits for
    a change to the benchmark."""

    @staticmethod
    def key_base(n: int, d: int = 3) -> int:
        """2 * 2dn^2 + 1, as the 2d products of an entry of AB - BA add at
        most 2dn^2 in absolute value to it, on either half: the keys'
        radix.  ValueError where a row's doubled keys would span more than
        2^63, 2 * base^(d^2 - 1) > 2^63: for n >= 5 at d = 3 and n >= 457
        at d = 2."""
        if n < 0:
            raise ValueError("n must be >= 0")
        base = 4 * d * n * n + 1
        if 2 * base ** (d * d - 1) > 2**63:
            raise ValueError(f"n={n} overflows the int64 key packing")
        return base

    def __init__(self, n: int, d: int = 3):
        base = self.key_base(n, d)
        eqs = d * d - 1
        self.n = n
        self.side = 2 * n + 1
        self.h1 = grid_tuples(n, (d * d + 1) // 2)
        self.h2 = grid_tuples(n, d * d // 2)
        pows = base ** np.arange(eqs, dtype=np.int64)
        # wmat[a, col] = sum_e pows[e] * (coefficient of a_flat[a] in the
        # col-th B-variable's coefficient within commutator entry e).
        self.wmat = np.einsum("e,eca->ac", pows, _coef_tensor(d))
        self.key_const = (base // 2) * int(pows.sum())
        self.key_span = 2 * base**eqs
        self.width = len(self.h1) + len(self.h2)
        self.max_rows = max(1, min(2**63 // self.key_span, _BLOCK_KEYS // self.width))

    def _sorted_keys(self, a_block: np.ndarray, order: bool = False):
        """The block's keys, each row sorted, flattened; with `order`, also
        each row's sorting permutation."""
        rows = len(a_block)
        if rows > self.max_rows:
            raise ValueError(f"a block holds at most {self.max_rows} rows")
        # steps[r, col, t]: what B-variable col at its t-th value adds to
        # row r's doubled key, negated on half 2.  The first axis of each
        # half also carries the row shift, the constant and the half bit.
        steps = (2 * a_block @ self.wmat)[:, :, None] * np.arange(-self.n, self.n + 1)
        split = self.h1.shape[1]
        steps[:, split:] *= -1
        start = 2 * self.key_const + self.key_span * np.arange(rows, dtype=np.int64)[:, None]
        steps[:, 0] += start
        steps[:, split] += start + 1
        keys = np.empty((rows, self.width), dtype=np.int64)
        w1 = len(self.h1)
        _outer_sum(steps[:, :split], keys[:, :w1])
        _outer_sum(steps[:, split:], keys[:, w1:])
        if not order:
            keys.sort(axis=1)
            return keys.ravel(), None
        perm = np.argsort(keys, axis=1)
        return np.take_along_axis(keys, perm, axis=1).ravel(), perm.ravel()

    @staticmethod
    def _shared_runs(keys: np.ndarray):
        """For sorted keys: the last half-1 position of every value that
        both halves hold, and the start and end of that value's run.  Keys
        k < k' that differ in the half bit alone are 2v and 2v + 1."""
        last1 = np.flatnonzero((keys[:-1] ^ keys[1:]) == 1)
        return (
            last1,
            np.searchsorted(keys, keys[last1], "left"),
            np.searchsorted(keys, keys[last1 + 1], "right"),
        )

    def count_block(self, a_block: np.ndarray) -> np.ndarray:
        """Commuting-partner count of every A in a block of at most
        `max_rows` rows."""
        keys, _ = self._sorted_keys(a_block)
        last1, start, end = self._shared_runs(keys)
        pairs = (last1 + 1 - start) * (end - last1 - 1)
        rows = keys[last1] // self.key_span
        # float64 weights are exact: a row's count is at most (2n+1)^(d^2) < 2^53.
        return np.bincount(rows, weights=pairs, minlength=len(a_block)).astype(np.int64)

    def partner_pairs(self, a_block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every commuting pair of a block of at most `max_rows` A, as index
        arrays (row, i1, i2): A = a_block[row], B = (h1[i1], h2[i2])."""
        keys, perm = self._sorted_keys(a_block, order=True)
        last1, start, end = self._shared_runs(keys)
        n1, n2 = last1 + 1 - start, end - last1 - 1
        sizes = n1 * n2
        total = int(sizes.sum())
        k = np.arange(total) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        width = np.repeat(n2, sizes)
        pos1 = np.repeat(start, sizes) + k // width
        pos2 = np.repeat(last1 + 1, sizes) + k % width
        return pos1 // self.width, perm[pos1], perm[pos2] - len(self.h1)

    def count_for_a(self, a_flat: np.ndarray) -> int:
        return int(self.count_block(a_flat[None, :])[0])

    def partners_for_a(self, a_flat: np.ndarray) -> np.ndarray:
        """All B (flattened rows) in the box commuting with A."""
        _, i1, i2 = self.partner_pairs(a_flat[None, :])
        return np.concatenate([self.h1[i1], self.h2[i2]], axis=1)


def states_3x3(n: int) -> int:
    """Budget accounting for the 3x3 oracle: every A, times both halves of
    the B tabulation."""
    side = 2 * n + 1
    return side**9 * (side**5 + side**4)


class _WorkerInterrupted(Exception):
    """A KeyboardInterrupt inside a pool worker, carried back to the parent
    as an ordinary exception (the pool loses BaseExceptions)."""


def _ignore_sigint() -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _run_part(fn, n: int, lo: int, hi: int):
    try:
        return fn(n, lo, hi)
    except KeyboardInterrupt:
        raise _WorkerInterrupted() from None


def _parallel_over_a(fn, n: int, threads: int | None):
    """Sum of fn(n, lo, hi) over one contiguous range of the (2n+1)^9 A ids
    per worker process (in this process when one worker suffices).

    Workers ignore SIGINT, so Ctrl-C interrupts only this process; the
    KeyboardInterrupt leaves the pool's context, which terminates the
    workers.  A KeyboardInterrupt raised inside a worker is re-raised here
    the same way, after the pool is terminated."""
    n_a = (2 * n + 1) ** 9
    workers = min(resolve_threads(threads), n_a)
    if workers <= 1:
        return fn(n, 0, n_a)
    bounds = np.linspace(0, n_a, workers + 1, dtype=np.int64)
    tasks = [(fn, n, int(bounds[i]), int(bounds[i + 1])) for i in range(workers)]
    with get_context("fork").Pool(workers, initializer=_ignore_sigint) as pool:
        try:
            return sum(pool.starmap(_run_part, tasks))
        except _WorkerInterrupted:
            raise KeyboardInterrupt from None


def _count3_range(n: int, lo: int, hi: int) -> int:
    mim = MeetInMiddle3(n)
    total = 0
    for block in range(lo, hi, mim.max_rows):
        a_block = a_rows(n, np.arange(block, min(block + mim.max_rows, hi)))
        total += int(mim.count_block(a_block).sum())
    return total


def brute_commuting_count(
    d: int, n: int, budget: WorkBudget | None = None, threads: int | None = None
) -> int:
    """Number of ordered pairs (A, B) of d x d integer matrices with entries
    in [-n, n] and AB == BA, by exhaustive enumeration: the join over every
    A, a block of `max_rows` at a time.

    An n past the key packing is refused (ValueError) before the budget is
    charged, and the budget is charged before any key is built: every A
    times both halves of the B tabulation.  The 3x3 count splits the A over
    `threads` worker processes; the 2x2 count runs in this process, where a
    pool would cost more than the whole join."""
    if d not in (2, 3):
        raise UnsupportedDimension(f"no oracle for d={d}; supported: 2, 3")
    MeetInMiddle3.key_base(n, d)
    budget = budget or WorkBudget()
    if d == 3:
        budget.require(states_3x3(n), "3x3 commuting-pair enumeration")
        return _parallel_over_a(_count3_range, n, threads)
    side = 2 * n + 1
    budget.require(side**4 * 2 * side**2, "2x2 commuting-pair enumeration")
    mim = MeetInMiddle3(n, d=2)
    a = grid_tuples(n, 4)
    return sum(
        int(mim.count_block(a[lo : lo + mim.max_rows]).sum())
        for lo in range(0, len(a), mim.max_rows)
    )


# --- p-adic ------------------------------------------------------------------

# Pairs per block of the residue enumeration (at least one row of x):
# 2^18 pairs make a 512 KB int16 block, whose passes stay in a core's L2
# cache; 2^23-pair blocks ran 1.7-2x slower.  The survivors' index arrays
# hold at most one entry per pair of the block.
_BLOCK_PAIRS = 2**18


def _valuation_table(p: int, n: int, q: int) -> np.ndarray:
    """min(v_p(x), n) for x in [0, q); the zero residue gets n."""
    v = np.zeros(q, dtype=np.int8)
    pk = p
    for _ in range(n):
        v[::pk] += 1
        pk *= p
    return v


def _residue_dtype(q: int):
    """The narrowest of int16, int32 and int64 that holds q^2.  A cross
    product of residues in [0, q) lies strictly between -q^2 and q^2, and so
    does the multiple q * floor(e / q) that `_divisible` compares it with."""
    for dtype in (np.int16, np.int32, np.int64):
        if q * q <= np.iinfo(dtype).max:
            return dtype
    raise ValueError(f"q = {q}: the int64 cross products need q^2 < 2^63")


def _divisible(e: np.ndarray, q: int) -> np.ndarray:
    """e % q == 0, tested as q * floor(e / q) == e: numpy divides by a
    scalar several times faster than it takes a remainder."""
    d = e // q
    d *= q
    return d == e


def _residue_pairs(x: np.ndarray, y: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) of every pair of residue triples x[:, i] = (x2, x3, x4) and
    y[:, j] = (y2, y3, y4) whose three cross products x_k*y_l - x_l*y_k
    vanish mod q.

    The first cross product is tested on every pair, and the later two
    only on the pairs that pass it."""
    x2, x3, x4 = x
    y2, y3, y4 = y
    e = x2[:, None] * y3
    e -= x3[:, None] * y2
    i, j = np.divmod(np.flatnonzero(_divisible(e, q)), y.shape[1])
    a2, a3, a4 = x2[i], x3[i], x4[i]
    b2, b3, b4 = y2[j], y3[j], y4[j]
    ok = _divisible(a2 * b4 - a4 * b2, q) & _divisible(a3 * b4 - a4 * b3, q)
    return i[ok], j[ok]


def _doubly_null(x: np.ndarray, y: np.ndarray, q: int) -> np.ndarray:
    """For residue triples x[:, k] and y[:, k]: x2*y3 = x3*y2 = 0 mod q."""
    return _divisible(x[0] * y[1], q) & _divisible(x[1] * y[0], q)


def _residue_solutions(p: int, n: int, budget: WorkBudget):
    """The residue triples T = [0, q)^3, q = p^n, one column each in
    lexicographic order, and an iterator over the solutions of the three
    cross-product equations mod q, a block at a time, as index arrays
    (i, j): x = T[:, i], y = T[:, j].  p and n are checked, and q^6 states
    charged, before T is built."""
    if not is_prime(p):
        raise NotPrime(f"p={p} is not prime")
    if n < 1:
        raise ValueError("n must be >= 1")
    q = p**n
    # int16 up to q = 181, int32 up to 46340: the cross products and the
    # multiples of q they are compared with stay inside (-q^2, q^2), so the
    # arithmetic is exact.
    dtype = _residue_dtype(q)
    budget.require(q**6, "residue-tuple enumeration")
    T = np.indices((q, q, q), dtype=dtype).reshape(3, -1)
    rows = max(1, _BLOCK_PAIRS // T.shape[1])

    def blocks():
        for lo in range(0, T.shape[1], rows):
            i, j = _residue_pairs(T[:, lo : lo + rows], T, q)
            yield lo + i, j

    return T, blocks()


def brute_padic_solutions(p: int, n: int, budget: WorkBudget | None = None) -> int:
    """Number of (x2, x3, x4, y2, y3, y4) in (Z/p^n)^6 with all three cross
    products x_i*y_j - x_j*y_i = 0 (i < j) mod p^n, by full enumeration."""
    _, solutions = _residue_solutions(p, n, budget or WorkBudget())
    return sum(len(i) for i, _ in solutions)


def brute_degenerate_padic(p: int, n: int, budget: WorkBudget | None = None) -> int:
    """Same enumeration, restricted to solutions whose first cross pattern is
    doubly null: x2*y3 = x3*y2 = 0 mod p^n."""
    T, solutions = _residue_solutions(p, n, budget or WorkBudget())
    q = p**n
    return sum(int(_doubly_null(T[:, i], T[:, j], q).sum()) for i, j in solutions)


def brute_valuation_classes(
    p: int, n: int, budget: WorkBudget | None = None
) -> ValuationClassCounts:
    """Solution counts bucketed by h = min over the six coordinates of
    min(v_p, n); buckets 0..n, summing to brute_padic_solutions(p, n)."""
    T, solutions = _residue_solutions(p, n, budget or WorkBudget())
    vt = _valuation_table(p, n, p**n)
    vmin = np.minimum(np.minimum(vt[T[0]], vt[T[1]]), vt[T[2]])
    hist = np.zeros(n + 1, dtype=np.int64)
    for i, j in solutions:
        hist += np.bincount(np.minimum(vmin[i], vmin[j]), minlength=n + 1)
    return ValuationClassCounts(p=p, n=n, classes={h: int(hist[h]) for h in range(n + 1)})


# --- autocorrelation table ---------------------------------------------------


def brute_r_table(n: int, budget: WorkBudget | None = None) -> dict[int, int]:
    """r(h) = #{(x1, x2, x3, x4) in [-n, n]^4 : x1*x2 - x3*x4 = h} for every
    h, by honest quadruple loop."""
    if n < 1:
        raise ValueError("n must be >= 1")
    budget = budget or WorkBudget()
    budget.require((2 * n + 1) ** 4, "quadruple-product enumeration")
    axis = range(-n, n + 1)
    table: dict[int, int] = {}
    for x1 in axis:
        for x2 in axis:
            left = x1 * x2
            for x3 in axis:
                for x4 in axis:
                    h = left - x3 * x4
                    table[h] = table.get(h, 0) + 1
    return table
