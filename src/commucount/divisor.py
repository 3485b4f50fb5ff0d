"""Autocorrelation tables of entrywise products, their moments, and the
finite-set analogues (doubling constants, sup-vs-center correlation checks).

The central object is r_N(h): over the grid [-N, N]^4, how many quadruples
satisfy x1*x2 - x3*x4 = h.  That is the autocorrelation of the product
distribution.  r_table feeds the dense product counts of the grid straight
to an exact transform: the counts written as decimal digit groups of one
number and multiplied exactly by libmpdec against its reversal; the grid's
counts are symmetric, c(m) = c(-m), so the number is squared.  Finite
rational sets give their sorted distinct products and counts as arrays
(int64 while every product stays within 2^62) to _autocorrelation, which
picks one of two routes from its input: the same transform when the product
span is small next to the number of distinct products, else one sort of the
pairwise product differences.  The sort keys are the exact differences
while the span fits int64, packed with their weight products into one
sorted int64 array where both fit, and residues mod a prime past it, where
pairs that share a residue are compared exactly.  The sort streams its
group sums a chunk of whole groups at a time, and lemma61_check reads only
a summary of the correlation (r(0), its sup, its third power sum and its
mass), so the sort keys are the one array over every pair.  No floating
point anywhere; every route checks the centre and mass identities, and the
test suite checks each against a naive double loop.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Union

from .core import (
    np,
    pairwise_fraction_sum,
    power_sum_work,
    product_distribution,
    totient_power_sums,
)
from .errors import InvariantViolation
from .oracle import WorkBudget

SetLike = Union["FiniteRealSet", Iterable[Union[int, Fraction]]]


# --- the exact correlation primitive ------------------------------------------

# The dense transform costs about 0.3-0.6 us per unit of product span,
# the streamed packed sort about 20 ns per pair of distinct products
# (s^2 / 2 pairs of s values).  Every input the transform may take also
# packs (a span of at most _MAX_DENSE_SPAN < 2^21, and weights below
# 2|A| <= 1000 give products of at most 20 bits), so the packed sort is
# its only rival: the transform wins when span < about 0.025 s^2 for s
# near 770, and below about 0.019 s^2 for s near 3150 (seeded sets of 40
# and 80 elements, spans 9e3 to 3e5, 2 vCPU, numpy 2.4.6; s near 770:
# 1.2-2.2x faster at 0.016-0.025 s^2, even at 0.027 s^2, 1.03-1.8x slower
# at 0.031-0.033 s^2; s near 3150: even at 0.018 s^2, 1.1-1.2x slower at
# 0.020-0.024 s^2, 1.6x slower at 0.031 s^2).
_DENSE_SPAN_PER_PAIR = 0.025
# Memory caps: the transform holds about 100 bytes per unit of its width
# hi - lo (2N^2 for r_table, so N <= 1000).  At its peak the packed sort
# holds one int64 array over its pairs, the packed keys; the argsort and
# the residues hold three, the keys, the weight products and the order.
# Both add temporaries of a chunk of _CHUNK_PAIRS pairs (1.2 and 3.3 int64
# a pair over 1.27M mostly distinct differences, traced with tracemalloc).
_MAX_DENSE_SPAN = 2_000_000
_MAX_SORT_PAIRS = 12_500_000
# Fingerprint modulus for differences past int64: a prime below 2^61, so
# a difference of residues fits int64.  Not the Mersenne prime 2^61 - 1:
# there 2^61 = 1, and the differences of a set of powers of two collide by
# construction.
_FINGERPRINT_PRIME = 2**61 - 31
# Pairs per chunk of the sort's output: its group sums are yielded and
# folded a chunk at a time, and the pair rectangle is built a block of
# about as many pairs at a time.
_CHUNK_PAIRS = 2**16


def _autocorrelation(
    values: np.ndarray, weights: np.ndarray, budget: WorkBudget | None = None
) -> _Summary:
    """The summary of the exact autocorrelation r(h) = sum_{m1 - m2 = h}
    c(m1) c(m2) of sorted distinct values m (an int64 array, or an object
    array of Python ints) with int64 counts c(m) = weights > 0: r(0), the
    sup over h, sum_h r(h)^3 and the mass sum_h r(h).

    The route is the one the input favours: the dense transform when the
    span is small next to the number s of distinct values, its summary
    read off the span-sized correlation, else one sort of the s(s-1)/2
    pairwise differences, whose group sums r(h), h > 0, are folded in
    chunk by chunk as _fingerprint_pair_sums yields them (r(-h) = r(h)).
    The budget is charged the transform's digits, span * len(str(r(0))),
    or the sort's s^2.

    Every r(h) is at most r(0) = sum c^2 (Cauchy-Schwarz), which the
    transform's centre must equal (the sort sets r(0) to it), and the r(h)
    sum to (sum c)^2; a result that breaks either identity raises
    InvariantViolation.  Values too many and too spread for both fixed
    memory caps, the transform's span and the sort's pairs, raise
    ValueError: no budget lifts those caps."""
    budget = budget or WorkBudget()
    lo, hi = int(values[0]), int(values[-1])
    span, s = hi - lo + 1, len(values)
    r0 = int(weights @ weights)
    if hi - lo <= _MAX_DENSE_SPAN and (
        span <= _DENSE_SPAN_PER_PAIR * s * s or s * (s - 1) // 2 > _MAX_SORT_PAIRS
    ):
        digits = len(str(r0))
        budget.require(span * digits, "dense product-correlation digits")
        counts = np.zeros(span, dtype=np.int64)
        counts[_offsets(values, lo)] = weights
        corr = _dense_correlation(counts, digits)
        summary = _fold(int(corr[span - 1]), [corr[span:]])._replace(mass=int(corr.sum()))
    else:
        if s * (s - 1) // 2 > _MAX_SORT_PAIRS:
            raise ValueError(
                f"{s} distinct products spanning {span} are past both fixed memory "
                f"caps of the exact correlation, a dense span of {_MAX_DENSE_SPAN} "
                f"and {_MAX_SORT_PAIRS} sorted pairs; no budget lifts them"
            )
        budget.require(s * s, "product-correlation pair work")
        summary = _fold(r0, _fingerprint_pair_sums(values, weights) if s > 1 else ())
    _check_centre_and_mass(r0, summary.r0, r0, summary.mass, int(weights.sum()) ** 2)
    return summary


class _Summary(NamedTuple):
    """What lemma61_check reads of an autocorrelation r, over every h."""

    r0: int
    sup: int
    cubes: int
    mass: int


def _fold(r0: int, halves: Iterable[np.ndarray]) -> _Summary:
    """The summary of r(0) = r0 and of chunks of r(h), h > 0, that hold each
    such h once (r(-h) = r(h))."""
    sup, cubes, half = r0, 0, 0
    for chunk in halves:
        sup = max(sup, int(chunk.max()))
        cubes += _power_sum(chunk, 3)
        half += int(chunk.sum())
    return _Summary(r0, sup, r0**3 + 2 * cubes, r0 + 2 * half)


def _offsets(values, lo: int) -> np.ndarray:
    """values - lo as int64, for sorted values spanning less than 2^63: an
    int64 array, or any sequence of Python ints."""
    if isinstance(values, np.ndarray) and values.dtype == np.int64:
        return values - lo
    return np.fromiter((m - lo for m in values), dtype=np.int64, count=len(values))


def _check_centre_and_mass(r0: int, got_center: int, center: int, got_mass: int, mass: int):
    """Raise InvariantViolation unless r0 = sum c^2, the correlation's centre
    got_center and the expected centre all agree, and its mass got_mass is
    the expected (sum c)^2."""
    if got_center != center or r0 != center or got_mass != mass:
        raise InvariantViolation(
            f"autocorrelation centre {got_center} and mass {got_mass} disagree "
            f"with the expected {center} and {mass}"
        )


def _dense_correlation(counts: np.ndarray, width: int) -> np.ndarray:
    """Exact autocorrelation of a dense count array, every output below
    10^width.

    Writes the counts as width-digit decimal groups of one number, and in
    reverse order as another, multiplies the two with libmpdec (which uses
    a number-theoretic transform on large operands) and reads the product
    back in groups: group L - 1 + h is sum_i counts[i] * counts[i + h].
    Symmetric counts, counts == counts[::-1] as in every r_table, make the
    two numbers equal, so the one number is squared: libmpdec then
    transforms a single operand.  The context traps Inexact and Rounded,
    so a product that would not be exact raises instead."""
    import decimal  # here, not at the top: most CLI commands never load it

    L = len(counts)
    digits = np.empty((L, width), dtype=np.uint8)
    rest = counts
    for k in range(width - 1, -1, -1):
        rest, digits[:, k] = np.divmod(rest, 10)
    digits += ord("0")
    forward = decimal.Decimal(digits.tobytes().decode("ascii"))
    if np.array_equal(counts, counts[::-1]):
        backward = forward
    else:
        backward = decimal.Decimal(digits[::-1].tobytes().decode("ascii"))
    context = decimal.Context(
        prec=decimal.MAX_PREC,
        Emax=decimal.MAX_EMAX,
        Emin=decimal.MIN_EMIN,
        traps=[
            decimal.InvalidOperation,
            decimal.Overflow,
            decimal.Inexact,
            decimal.Rounded,
        ],
    )
    text = format(context.multiply(forward, backward), "f").encode("ascii")
    size = (2 * L - 1) * width
    if len(text) > size:
        raise InvariantViolation("dense correlation overflowed its digit groups")
    padded = np.full(size, ord("0"), dtype=np.uint8)
    padded[size - len(text) :] = np.frombuffer(text, dtype=np.uint8)
    groups = padded.reshape(2 * L - 1, width)[::-1] - ord("0")
    out = np.zeros(2 * L - 1, dtype=np.int64)
    for k in range(width):
        out *= 10
        out += groups[:, k]
    return out


def _fold_shape(s: int) -> tuple[int, int]:
    """(height, width) of the rectangle that the s(s-1)/2 pairs i < j of s
    >= 2 values fill in _pair_differences."""
    width = s if s % 2 else s - 1
    return s * (s - 1) // 2 // width, width


def _row_blocks(s: int) -> Iterator[tuple[int, int]]:
    """The rows [start, stop) of the folded rectangle of s values, a block
    of about _CHUNK_PAIRS pairs at a time."""
    height, width = _fold_shape(s)
    step = max(1, _CHUNK_PAIRS // width)
    for start in range(0, height, step):
        yield start, min(start + step, height)


def _pair_block(values, weights, start: int, stop: int, diffs, prods):
    """values[j] - values[i] into diffs and weights[i] * weights[j] into
    prods, (stop - start, width) int64 arrays, for the pairs i < j in rows
    start..stop-1 of the folded rectangle of two int64 arrays of length s.

    Row k holds the pairs of i = k (j = k+1..s-1) followed by those of i =
    2s - 2 - width - k, reversed: across it the j run along the values
    followed by the reversed values, one sliding window per row, so each
    array takes two broadcast operations and no Python loop."""
    s, width = len(values), diffs.shape[1]
    k = np.arange(start, stop)
    folded = np.arange(width) >= s - 1 - k[:, None]
    other = 2 * s - 2 - width - k
    for x, op, out in ((values, np.subtract, diffs), (weights, np.multiply, prods)):
        windows = np.lib.stride_tricks.sliding_window_view(np.concatenate((x, x[::-1])), width)
        windows = windows[start + 1 : stop + 1]
        op(windows, x[start:stop, None], out=out)
        op(windows, x[other, None], out=out, where=folded)


def _pair_differences(values: np.ndarray, weights: np.ndarray):
    """values[j] - values[i] and weights[i] * weights[j] for every i < j of
    two int64 arrays of length s >= 2, as flat arrays in the order of
    _pair_rows_cols: the folded rectangle (_pair_block), built a block of
    rows at a time."""
    diffs, prods = (np.empty(_fold_shape(len(values)), dtype=np.int64) for _ in range(2))
    for start, stop in _row_blocks(len(values)):
        _pair_block(values, weights, start, stop, diffs[start:stop], prods[start:stop])
    return diffs.ravel(), prods.ravel()


def _pair_rows_cols(pairs: np.ndarray, s: int) -> tuple[np.ndarray, np.ndarray]:
    """The (i, j), i < j, of the pairs at the given positions of
    _pair_differences(values, weights) for s values."""
    width = _fold_shape(s)[1]
    k, c = np.divmod(pairs, width)
    first = c < s - 1 - k
    rows = np.where(first, k, 2 * s - 2 - width - k)
    return rows, np.where(first, k + 1 + c, 2 * s - 2 - k - c)


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal entries of a sorted array starts."""
    return np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))


def _chunk_bounds(n: int, group) -> Iterator[tuple[int, int]]:
    """Cut n pairs, sorted on their group(i), into slices [start, stop) of
    at most _CHUNK_PAIRS pairs, each ending where a group does: a binary
    search for where the group of the first pair past the chunk begins.
    A group longer than a chunk is one slice."""
    start = 0
    while start < n:
        stop = min(start + _CHUNK_PAIRS, n)
        if stop < n:
            key = group(stop)
            cut = bisect_left(range(n), key, start, stop, key=group)
            stop = cut if cut > start else bisect_right(range(n), key, stop, n, key=group)
        yield start, stop
        start = stop


def _group_sums(keys: np.ndarray, prods: np.ndarray):
    """Argsort the keys and sum the products of equal keys, a chunk of whole
    groups at a time (_chunk_bounds): (order, run starts, run sums) of each
    chunk, its slice of the order and the starts within it.  The keys, the
    products and the order are the only arrays over every pair."""
    order = np.argsort(keys)
    for start, stop in _chunk_bounds(len(keys), lambda i: int(keys[order[i]])):
        part = order[start:stop]
        starts = _run_starts(keys[part])
        yield part, starts, np.add.reduceat(prods[part], starts)


def _fingerprint_pair_sums(values, weights: np.ndarray) -> Iterator[np.ndarray]:
    """r(h) for h > 0 from sorted distinct values of any size (an int64
    array, or any sequence of Python ints), yielded in chunks of whole
    groups, at most _CHUNK_PAIRS pairs unless one group is longer, so no h
    is split or repeated; the order of the h is not specified.

    Pairs are grouped on their difference, one sort over the keys m - lo.
    When hi - lo is below 2^63, every key and every key difference is exact
    in int64, so no two h can share a group.  If, besides, (hi - lo + 1)
    shifted left by the bit length b of the largest weight product stays
    below 2^63, each difference and its weight product are packed into one
    int64, difference << b | product, built a block of rows at a time into
    the one array over every pair, and that array is sorted in place: runs
    of equal high bits are the groups and their low bits the sums.
    Otherwise the differences are argsorted and the products gathered a
    chunk at a time (_group_sums).  Past 2^63 the keys are (m - lo) mod
    _FINGERPRINT_PRIME, and the exact differences are compared inside every
    group of two or more pairs of a chunk; if any group holds two h, those
    pairs are grouped again on their exact differences.  Pairs of one exact
    difference share a residue and so a chunk, and a collision mod the
    prime cannot merge two h."""
    s, lo, hi = len(values), int(values[0]), int(values[-1])
    if hi - lo < 2**63:
        offsets = _offsets(values, lo)
        top = np.sort(weights)[-2:]
        b = int(top[0] * top[1]).bit_length()
        if (hi - lo + 1) << b >= 2**63:
            for _, _, sums in _group_sums(*_pair_differences(offsets, weights)):
                yield sums
            return
        packed = np.empty(_fold_shape(s), dtype=np.int64)
        blocks = list(_row_blocks(s))
        prods = np.empty_like(packed[: blocks[0][1]])  # the first block is the tallest
        for start, stop in blocks:
            block, products = packed[start:stop], prods[: stop - start]
            _pair_block(offsets, weights, start, stop, block, products)
            block <<= b
            block |= products
        del prods, products
        packed = packed.ravel()
        packed.sort()
        low = (1 << b) - 1
        for start, stop in _chunk_bounds(len(packed), lambda i: int(packed[i]) >> b):
            chunk = packed[start:stop]
            starts = _run_starts(chunk >> b)
            chunk &= low  # the bounds of later chunks read only later keys
            yield np.add.reduceat(chunk, starts)
        return
    residues = np.array([(m - lo) % _FINGERPRINT_PRIME for m in values], dtype=np.int64)
    keys, prods = _pair_differences(residues, weights)
    keys %= _FINGERPRINT_PRIME
    exact = np.array(values, dtype=object)
    for part, starts, sums in _group_sums(keys, prods):
        sizes = np.diff(np.append(starts, len(part)))
        shared = np.repeat(sizes > 1, sizes)
        if not shared.any():
            yield sums
            continue
        pairs = part[shared]
        rows, cols = _pair_rows_cols(pairs, s)
        differences = exact[cols] - exact[rows]
        counts = sizes[sizes > 1]
        firsts = np.cumsum(counts) - counts
        if (differences == np.repeat(differences[firsts], counts)).all():
            yield sums
            continue
        _, by_difference = np.unique(differences, return_inverse=True)
        regrouped = np.zeros(by_difference.max() + 1, dtype=np.int64)
        np.add.at(regrouped, by_difference, prods[pairs])
        yield np.concatenate((sums[sizes == 1], regrouped))


# --- the grid product autocorrelation -----------------------------------------


@dataclass(frozen=True, eq=False)
class RTable:
    """r_N(h) for |h| <= 2N^2, stored as the int64 array r[h + 2N^2]."""

    n: int
    r: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RTable):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.r, other.r)

    def value(self, h: int) -> int:
        """r_N(h); 0 off the support."""
        k = h + 2 * self.n * self.n
        return int(self.r[k]) if 0 <= k < len(self.r) else 0

    def items(self) -> Iterator[tuple[int, int]]:
        """The nonzero entries (h, r_N(h)) as Python ints, by increasing h."""
        nonzero = np.flatnonzero(self.r)
        return zip((nonzero - 2 * self.n * self.n).tolist(), self.r[nonzero].tolist())

    @property
    def values(self) -> dict[int, int]:
        """The nonzero entries as a dict {h: r_N(h)}."""
        return dict(self.items())

    def support(self) -> list[int]:
        return (np.flatnonzero(self.r) - 2 * self.n * self.n).tolist()

    def total(self) -> int:
        return int(self.r.sum())


def _power_sum(values: np.ndarray, k: int) -> int:
    """sum(values**k), exact, for nonnegative int64 values.  When every
    power fits in int64, numpy adds the powers' high and low 32-bit halves
    apart, so neither sum can wrap; otherwise Python integers do it."""
    if int(values.max()) ** k < 2**63 and len(values) < 2**31:
        powers = values**k
        return (int((powers >> 32).sum()) << 32) + int((powers & 0xFFFFFFFF).sum())
    return sum(v**k for v in values.tolist())


def r_zero(n: int, budget: WorkBudget | None = None) -> int:
    """r_N(0) in closed form: quadruples with x1*x2 = x3*x4 correspond to
    ordered pairs of linearly dependent vectors (x1, x4), (x3, x2), counted
    as 2*(2n+1)^2 - 1 (a zero vector involved) plus 16*sum_m phi(m)*(n//m)^2
    (both nonzero on a common primitive line).  The sum runs over blocks of
    m with one n//m, reading sum phi(m) at their ends: at most
    power_sum_work(n, 0) steps, the prefix table up to min(n, 77,000) plus
    about 8n/sqrt(77,000) recursion steps past it, charged to the budget
    before any work."""
    if n < 1:
        raise ValueError("n must be >= 1")
    (budget or WorkBudget()).require(power_sum_work(n, 0), "totient power sums")
    side = 2 * n + 1
    sums = totient_power_sums(n, 0)
    dependent = 0
    prev = 0
    for end, (cur,) in zip(sums.ends, sums.sums):
        k = n // end
        dependent += (cur - prev) * k * k
        prev = cur
    return 2 * side * side - 1 + 16 * dependent


def r_table(n: int, budget: WorkBudget | None = None) -> RTable:
    """The full autocorrelation table r_N(h) for |h| <= 2n^2, exact.

    The dense transform of the product counts is charged its digits,
    (2n^2 + 1) times those of r_N(0), before the counts are built; its
    memory cap on the product width 2n^2 stops n at 1000, which no budget
    lifts.  The table's centre must equal both sum c^2 and the closed form
    r_N(0), and its mass (2n + 1)^4, or InvariantViolation is raised."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if 2 * n * n > _MAX_DENSE_SPAN:
        raise ValueError(
            f"r_table needs n <= {math.isqrt(_MAX_DENSE_SPAN // 2)}, the memory cap "
            f"of the dense transform (product width {_MAX_DENSE_SPAN}); no budget lifts it"
        )
    center = r_zero(n, budget)
    span = 2 * n * n + 1
    digits = len(str(center))
    (budget or WorkBudget()).require(span * digits, "dense product-correlation digits")
    counts = product_distribution(n)
    r = _dense_correlation(counts, digits)
    _check_centre_and_mass(
        int(counts @ counts), int(r[span - 1]), center, int(r.sum()), (2 * n + 1) ** 4
    )
    r.flags.writeable = False
    return RTable(n=n, r=r)


def moment(
    n: int, k: int, budget: WorkBudget | None = None, table: RTable | None = None
) -> int:
    """I_k(N) = sum_h r_N(h)^k.  k = 1 gives (2N+1)^4 by construction; k = 2
    counts octuples with x1*x2 - x3*x4 = x5*x6 - x7*x8."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if table is None:
        table = r_table(n, budget)
    elif table.n != n:
        raise ValueError(f"table is for n={table.n}, not n={n}")
    return _power_sum(table.r, k)


def divisor_bound_check(
    n: int,
    h: int,
    budget: WorkBudget | None = None,
    table: RTable | None = None,
) -> Fraction:
    """r_N(h) / (N^2 * sum_{d | |h|, d <= N} 1/d), exact.

    The denominator is the shape of the standard divisor-sum upper bound for
    shifted product counts; bounded ratios across the whole support are the
    diagnostic the tests sweep."""
    if h == 0:
        raise ValueError("h must be nonzero (the h = 0 bound has a log factor)")
    if table is None:
        table = r_table(n, budget)
    elif table.n != n:
        raise ValueError(f"table is for n={table.n}, not n={n}")
    ah = abs(h)
    # At most N trial divisions however large h is: r_table caps N.
    dsum = sum(Fraction(1, d) for d in range(1, min(n, ah) + 1) if ah % d == 0)
    return Fraction(table.value(h)) / (n * n * dsum)


# --- classical divisor-function correlations ----------------------------------

_SIEVE_LIMIT = 10**7


def _divisor_sieve(limit: int, k: int) -> np.ndarray:
    """sigma_k(0..limit) = sum of d^k over the divisors d of m, as int64
    (entry 0 is 0).  Every divisor pair d * e = m with d <= e has d <=
    sqrt(limit), so one pass over those d adds d^k + e^k to the multiples
    d*e, e > d, and d^k to d*d."""
    sigma = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, math.isqrt(limit) + 1):
        sigma[d * d] += d**k
        multiples = sigma[d * (d + 1) :: d]
        multiples += d**k
        partners = np.arange(d + 1, limit // d + 1, dtype=np.int64)
        partners **= k
        multiples += partners
    return sigma


def classic_divisor_correlation(x: int, h: int) -> int:
    """D_X(h) = sum_{m <= X} tau(m) * tau(m + h), exact via a tau sieve."""
    if x < 1:
        raise ValueError("x must be >= 1")
    if h < 0:
        raise ValueError("h must be >= 0")
    if x + h > _SIEVE_LIMIT:
        raise ValueError(f"x + h must stay within the sieve limit {_SIEVE_LIMIT}")
    tau = _divisor_sieve(x + h, 0)
    return int(np.dot(tau[1 : x + 1], tau[1 + h : x + h + 1]))


def partial_sum_check(x: int, k: int) -> Fraction:
    """(1/X) * sum_{m <= X} (sigma(m)/m)^k as an exact rational.

    Exact through X around 10^5 in practice (the reduced denominator grows
    like lcm(1..X)^k); the large-X convergence comparison in the full verify
    suite uses a float rendering of the same sum instead."""
    if not 1 <= x <= 10**6:
        raise ValueError("x must be in 1..10^6")
    if not 1 <= k <= 4:
        raise ValueError("k must be in 1..4")
    sigma = _divisor_sieve(x, 1)
    total = pairwise_fraction_sum(
        Fraction(int(sigma[m]), m) ** k for m in range(1, x + 1)
    )
    return total / x


def partial_sum_float(x: int, k: int) -> float:
    """float64 rendering of partial_sum_check for large X diagnostics."""
    if not 1 <= x <= 10**7:
        raise ValueError("x must be in 1..10^7")
    sigma = _divisor_sieve(x, 1)
    ratios = sigma[1:].astype(np.float64) / np.arange(1, x + 1, dtype=np.float64)
    return float((ratios**k).sum() / x)


# --- finite rational sets ------------------------------------------------------


@dataclass(frozen=True)
class FiniteRealSet:
    """A nonempty finite set of exact rationals, stored sorted."""

    elements: tuple[Fraction, ...]

    @classmethod
    def from_values(cls, values: SetLike) -> "FiniteRealSet":
        if isinstance(values, FiniteRealSet):
            return values
        elems = sorted(Fraction(v) for v in values)
        if not elems:
            raise ValueError("set must be nonempty")
        for a, b in zip(elems, elems[1:]):
            if a == b:
                raise ValueError(f"duplicate element {a}")
        return cls(tuple(elems))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def parse_set_file(path: str) -> FiniteRealSet:
    """One integer or p/q rational per line; blank lines and '#' comments
    (full-line or trailing) ignored; duplicates rejected."""
    values: list[Fraction] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            token = line.split("#", 1)[0].strip()
            if not token:
                continue
            try:
                values.append(Fraction(token))
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"{path}:{lineno}: bad entry {token!r}") from exc
    if not values:
        raise ValueError(f"{path}: no elements")
    try:
        return FiniteRealSet.from_values(values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _scaled_integers(aset: FiniteRealSet) -> tuple[list[int], int]:
    """The set as integers after clearing denominators, plus the scale."""
    scale = math.lcm(*(v.denominator for v in aset.elements))
    return [int(v * scale) for v in aset.elements], scale


def _product_counts(ints: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct products a*b over ordered pairs from ints, and
    how many pairs give each, as int64 counts: one outer product, one sort,
    and the counts read at the run boundaries.

    While max|a|^2 < 2^62 the products, and any difference of two of them,
    fit int64 and the arrays are int64; past that they hold Python ints
    (dtype object)."""
    wide = max(abs(a) for a in ints) ** 2 >= 2**62
    arr = np.array(ints, dtype=object if wide else np.int64)
    products = np.multiply.outer(arr, arr).ravel()
    products.sort()
    starts = _run_starts(products)
    return products[starts], np.diff(np.append(starts, len(products)))


def r_set(aset: SetLike, target: Union[int, Fraction]) -> int:
    """r_A(n) = #{(a, b, c, d) in A^4 : a*b - c*d = n} for a finite rational
    set A, exact."""
    aset = FiniteRealSet.from_values(aset)
    if len(aset) > 2000:
        raise ValueError("r_set supports sets of at most 2000 elements")
    ints, scale = _scaled_integers(aset)
    t = Fraction(target) * scale * scale
    if t.denominator != 1:
        return 0
    t = int(t)
    values, counts = _product_counts(ints)
    counts = dict(zip(values.tolist(), counts.tolist()))
    return sum(c * counts.get(m - t, 0) for m, c in counts.items())


class DoublingReport(NamedTuple):
    """|A|, |A+A| and the doubling ratio |A+A|/|A| of a finite set."""

    size: int
    sumset_size: int
    ratio: Fraction


def doubling_report(aset: SetLike) -> DoublingReport:
    aset = FiniteRealSet.from_values(aset)
    if len(aset) > 2000:
        raise ValueError("doubling_report supports sets of at most 2000 elements")
    ints, _ = _scaled_integers(aset)
    sums = {a + b for a in ints for b in ints}
    return DoublingReport(len(ints), len(sums), Fraction(len(sums), len(ints)))


def lemma61_check(aset: SetLike, budget: WorkBudget | None = None) -> dict[str, int]:
    """{'sup_r': max_h r_A(h), 'r0': r_A(0), 'i3': sum_h r_A(h)^3}, exact.

    sup_r is taken over every h with r_A(h) > 0.  (Whether the center
    dominates, sup_r == r0, is deliberately *not* enforced here — that is
    the property the callers test.)  The sorted distinct products and their
    counts come as arrays from _product_counts, and the three numbers from
    the summary that _autocorrelation folds on the route it picks from the
    products' span and count, so no table of r_A(h) is kept; a set past the
    memory caps of every route raises ValueError."""
    aset = FiniteRealSet.from_values(aset)
    if len(aset) > 500:
        raise ValueError("lemma61_check supports sets of at most 500 elements")
    ints, _ = _scaled_integers(aset)
    values, counts = _product_counts(ints)
    summary = _autocorrelation(values, counts, budget)
    return {"sup_r": summary.sup, "r0": summary.r0, "i3": summary.cubes}
