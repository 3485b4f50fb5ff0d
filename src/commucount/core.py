"""Integer-arithmetic building blocks: primality, totients and their power
sums, primitive lattice directions, entrywise product distributions, and the
handful of zeta-derived constants the asymptotic diagnostics compare against.

Everything except the zeta constants is exact integer arithmetic.  The zeta
values are evaluated once per precision by direct summation plus an
Euler-Maclaurin tail whose first omitted term bounds the error; at the default
40 digits the tail bound is below 1e-43, comfortably past the 1e-6 tolerances
used by the acceptance checks.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from bisect import bisect_right
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cache, lru_cache
from typing import Iterable, NamedTuple


def _lazy_numpy():
    """numpy as a module that runs its import on its first attribute
    access, so a command that never touches it (a cache hit, --help, the
    pure-integer closed forms) starts without paying for it.  The package's
    other modules take `np` from here: a plain `import numpy` of a module
    already in sys.modules reads its __spec__, and that runs the import."""
    spec = None if "numpy" in sys.modules else importlib.util.find_spec("numpy")
    if spec is None:  # numpy already imported, or missing: import it plainly
        import numpy

        return numpy
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_numpy()


# The first 13 primes.  As Miller-Rabin bases they decide primality exactly
# below 3317044064679887385961981 (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Exact primality by deterministic Miller-Rabin below 3.3e24.  Above
    that bound a failed base still proves p composite, but a number that
    passes every base raises ValueError: it is not proven prime."""
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    if p < 43 * 43:
        return True
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    if p >= _MR_EXACT_BELOW:
        raise ValueError(f"primality of {p} is not decided above 3.3e24")
    return True


def totient(u: int) -> int:
    """Euler's totient of u >= 1 by trial-division factoring."""
    if u < 1:
        raise ValueError(f"totient needs u >= 1, got {u}")
    result = u
    m = u
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1 if p == 2 else 2
    if m > 1:
        result -= result // m
    return result


def totient_sieve(limit: int) -> np.ndarray:
    """phi(0..limit) as an int64 array (phi[0] = 0).

    Loops over the primes p <= sqrt(limit) only: each scales its multiples
    by (1 - 1/p) and is divided out of a cofactor array.  What is left of
    the cofactor of m is then 1 or the single prime factor of m above
    sqrt(limit), and one vectorized step applies that factor to every m."""
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    phi = np.arange(limit + 1, dtype=np.int64)
    rest = phi.copy()
    for p in range(2, math.isqrt(limit) + 1):
        if rest[p] != p:  # composite: a smaller prime was divided out of it
            continue
        phi[p::p] -= phi[p::p] // p
        q = p
        while q <= limit:
            rest[q::q] //= p
            q *= p
    big = np.flatnonzero(rest > 1)
    phi[big] -= phi[big] // rest[big]
    return phi


# --- totient power sums S_k(v) = sum_{m <= v} phi(m) * m^k ---------------------

# Largest sieve behind the power sums: the int64 prefix sum of phi(m)*m^2 is
# at most sum m^3 = (T(T+1)/2)^2, which must stay below 2^63.
_SIEVE_CAP = 77_000
assert (_SIEVE_CAP * (_SIEVE_CAP + 1) // 2) ** 2 < 2**63


@cache
def _prefix_table() -> np.ndarray:
    """S_k(v) = table[k, v] for k = 0..2 and v = 0.._SIEVE_CAP: one int64
    table per process (1.85 MB), sieved on its first use and read by every
    call after it."""
    # Sieve before the table is allocated and free phi before m, so the build
    # holds no more than the sieve itself did.
    phi = totient_sieve(_SIEVE_CAP)
    table = np.empty((3, _SIEVE_CAP + 1), dtype=np.int64)
    table[0] = phi
    del phi
    m = np.arange(_SIEVE_CAP + 1, dtype=np.int64)
    np.multiply(table[0], m, out=table[1])
    np.multiply(table[1], m, out=table[2])
    np.cumsum(table, axis=1, out=table)
    return table


def power_sum_work(n: int, degree: int) -> int:
    """Upper bound on PowerSums.steps of totient_power_sums(n, degree): the
    table entries read plus, for each k, at most 2*sqrt(v) blocks at each of
    the values v = 2n//j > cut, j = 2..J, which sum to at most 4*sqrt(2n*J)."""
    x = 2 * n
    cut = min(n, _SIEVE_CAP)
    top_j = x // (cut + 1)
    recursion = 4 * math.isqrt(x * top_j) + 4 if top_j >= 2 else 0
    return cut + 1 + (degree + 1) * recursion


class PowerSums(NamedTuple):
    """S_k at every block end, k = 0..degree.  `ends` ascend; `sums[i][k]`
    is S_k(ends[i]).  `steps` counts T + 1 for the part of the prefix table
    up to T = min(n, _SIEVE_CAP), plus degree + 1 for each block the
    recursion visited."""

    ends: list[int]
    sums: list[tuple[int, ...]]
    steps: int


def totient_power_sums(n: int, degree: int) -> PowerSums:
    """S_k(v) = sum_{m <= v} phi(m) * m^k for k = 0..degree at every
    v = 2n // j, j >= 2: the right ends of the ranges of m in 1..n on which
    (2n)//m, and so n//m, is constant.  Exact, in at most power_sum_work
    steps: the T + 1 table entries up to T = min(n, _SIEVE_CAP), plus about
    8n/sqrt(_SIEVE_CAP) recursion steps for each k once n passes the cap.

    Up to T the sums are read from the process's int64 prefix table
    (_prefix_table), sieved once to the cap; its build is charged to no
    call, so `steps` is the same in every call order.  Above T they follow
    Du's recursion
        S_k(v) = sum_{i <= v} i^(k+1) - sum_{d >= 2} d^k * S_k(v // d),
    the identity (phi * id^k) * id^k = id^(k+1) summed up to v, with d
    grouped into the ranges where v // d is constant.  Every v // d is again
    of the form 2n // j, so the values above T are filled in ascending order
    from the ones below them."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= degree <= 2:
        raise ValueError("degree must be in 0..2")
    x = 2 * n
    r = math.isqrt(x)
    # Every v <= x//(r+1) is some x//j; the x//j for j = r..2 are distinct
    # and can only repeat the largest of those, at j = r.
    ends = list(range(1, x // (r + 1) + 1))
    ends += [v for v in (x // j for j in range(r, 1, -1)) if v > ends[-1]]
    cut = min(n, _SIEVE_CAP)
    low = bisect_right(ends, cut)
    at = np.asarray(ends[:low], dtype=np.int64)
    rows = _prefix_table()[: 1 if degree == 0 else 3, at].tolist()
    # One walk over the blocks of d per v serves every degree: the running
    # sums i^k up to the block end e are e, e(e+1)/2 and e(e+1)(2e+1)/6.
    if degree == 0:
        table = dict(zip(ends[:low], rows[0]))
        for v in ends[low:]:
            s0 = v * (v + 1) // 2
            d, b0 = 2, 1
            while d <= v:
                w = v // d
                e = v // w
                s0 -= (e - b0) * table[w]
                b0 = e
                d = e + 1
            table[v] = s0
        sums = [(table[v],) for v in ends]
    else:
        # Degree 1 takes this walk too and drops S_2 at the end: no caller
        # asks for S_1 without S_2, so it gets no walk of its own.
        table = dict(zip(ends[:low], zip(*rows)))
        for v in ends[low:]:
            tri = v * (v + 1) // 2
            s0, s1, s2 = tri, tri * (2 * v + 1) // 3, tri * tri
            d, b0, b1, b2 = 2, 1, 1, 1
            while d <= v:
                w = v // d
                e = v // w
                t0, t1, t2 = table[w]
                tri = e * (e + 1) // 2
                sq = tri * (2 * e + 1) // 3
                s0 -= (e - b0) * t0
                s1 -= (tri - b1) * t1
                s2 -= (sq - b2) * t2
                b0, b1, b2 = e, tri, sq
                d = e + 1
            table[v] = (s0, s1, s2)
        sums = [table[v][: degree + 1] for v in ends]
    # The walk over v visits one block per distinct v // d, d >= 2: with
    # r = isqrt(v) there are 2r - [r(r+1) > v] distinct v // d over d >= 1.
    blocks = 0
    for v in ends[low:]:
        r = math.isqrt(v)
        blocks += 2 * r - (r * (r + 1) > v) - 1
    return PowerSums(ends, sums, cut + 1 + (degree + 1) * blocks)


def divisor_tau(n: int) -> int:
    """Number of positive divisors of n >= 1."""
    if n < 1:
        raise ValueError(f"divisor_tau needs n >= 1, got {n}")
    count = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            count += 1 if d * d == n else 2
        d += 1
    return count


class PrimitiveDirection(NamedTuple):
    """A canonical primitive lattice direction (u, v): gcd(u, v) = 1 and
    either u > 0 or (u, v) = (0, 1).  m = max(|u|, |v|) is carried along
    because every downstream weight depends only on it."""

    u: int
    v: int
    m: int


def primitive_directions(n: int) -> list[PrimitiveDirection]:
    """All canonical primitive directions with max(|u|, |v|) <= n, in a
    fixed deterministic order (ascending by m, then a fixed pattern).

    Every nonzero point of the (2n+1) x (2n+1) grid is a nonzero integer
    multiple of exactly one of these.
    """
    if n < 1:
        raise ValueError(f"primitive_directions needs n >= 1, got {n}")
    dirs = [
        PrimitiveDirection(1, 0, 1),
        PrimitiveDirection(0, 1, 1),
        PrimitiveDirection(1, 1, 1),
        PrimitiveDirection(1, -1, 1),
    ]
    for m in range(2, n + 1):
        for j in range(1, m):
            if math.gcd(j, m) == 1:
                dirs.append(PrimitiveDirection(m, j, m))
                dirs.append(PrimitiveDirection(m, -j, m))
                dirs.append(PrimitiveDirection(j, m, m))
                dirs.append(PrimitiveDirection(j, -m, m))
    return dirs


def product_distribution(n: int) -> np.ndarray:
    """Multiplicities of a*b over all (a, b) in [-n, n]^2, as the int64 array
    counts[m + n^2] for |m| <= n^2.

    Symmetric (counts[m] == counts[-m]), total mass (2n+1)^2, and the zero
    class has 4n+1 members.  In the positive quadrant the products a*b, b in
    1..n, are the distinct multiples a, 2a, ..., na, so one strided slice
    per a counts them; the other quadrants mirror it.
    """
    if n < 0:
        raise ValueError(f"product_distribution needs n >= 0, got {n}")
    side = n * n
    quadrant = np.zeros(side + 1, dtype=np.int64)
    for a in range(1, n + 1):
        quadrant[a : a * n + 1 : a] += 1
    counts = np.empty(2 * side + 1, dtype=np.int64)
    counts[side + 1 :] = 2 * quadrant[1:]  # (+,+) and (-,-)
    counts[:side] = counts[: side : -1]  # (+,-) and (-,+)
    counts[side] = 4 * n + 1
    return counts


# --- zeta constants ---------------------------------------------------------

# B_2 .. B_16, enough for error << 1e-40 at M = 256.
_BERNOULLI = [
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
    Fraction(-3617, 510),
]


@lru_cache(maxsize=None)
def zeta_value(s: int, digits: int = 40) -> Decimal:
    """zeta(s) for integer s >= 2 to `digits` significant digits.

    Direct sum to M = 256 plus the Euler-Maclaurin correction
        M^(1-s)/(s-1) + M^(-s)/2 + sum_j B_2j/(2j)! * (s)_(2j-1) * M^(1-s-2j),
    truncated after B_16; the first omitted term (< 1e-43 for s >= 2)
    bounds the truncation error.
    """
    if s < 2:
        raise ValueError("zeta_value needs s >= 2")
    M = 256
    with localcontext() as ctx:
        ctx.prec = digits + 15
        total = sum(Decimal(1) / Decimal(k) ** s for k in range(1, M))
        total += Decimal(M) ** (1 - s) / (s - 1)
        total += Decimal(M) ** (-s) / 2
        rising = s  # (s)_1
        fact = 2  # (2j)!
        for j, b in enumerate(_BERNOULLI, start=1):
            coeff = Decimal(b.numerator) / Decimal(b.denominator)
            total += coeff / fact * rising * Decimal(M) ** (1 - s - 2 * j)
            rising *= (s + 2 * j - 1) * (s + 2 * j)
            fact *= (2 * j + 1) * (2 * j + 2)
    with localcontext() as ctx:
        ctx.prec = digits
        return +total


def main_term_constant_2x2() -> Decimal:
    """10*zeta(2) / (3*zeta(3)) = 4.5614425920673529... to 40 digits: the
    constant in the leading (2N)^5 term of the 2x2 commuting count."""
    with localcontext() as ctx:
        ctx.prec = 40
        return 10 * zeta_value(2, 50) / (3 * zeta_value(3, 50))


def dependent_pair_constant() -> Decimal:
    """16/zeta(2) = 9.7268336... to 40 digits: the N^2 log N coefficient in
    the count of linearly dependent vector pairs (r_N(0))."""
    with localcontext() as ctx:
        ctx.prec = 40
        return 16 / zeta_value(2, 50)


def pairwise_fraction_sum(values: Iterable[Fraction]) -> Fraction:
    """Sum of exact rationals by balanced pairwise merging.

    Equivalent to sum(), but keeps intermediate denominators near the subtree
    lcm instead of the running-prefix lcm, which is dramatically faster for
    long harmonic-like sums.
    """
    stack: list[Fraction] = []
    counts: list[int] = []
    for v in values:
        stack.append(v)
        counts.append(1)
        while len(counts) > 1 and counts[-1] == counts[-2]:
            v2 = stack.pop()
            counts.pop()
            stack[-1] = stack[-1] + v2
            counts[-1] *= 2
    total = Fraction(0)
    while stack:
        total += stack.pop()
    return total
