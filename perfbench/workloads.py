"""Seeded job lists for the four benchmark workloads.

A job is one public call into a commucount module, or one CLI invocation.
Every workload is a closed loop with one client: run.py starts the next
job only when the previous one has returned.

Each generator keeps the work of a pass, and the shape of its job-time
distribution, nearly the same for every seed while the inputs change with
it: heavy calls come in pairs whose costs add up to a constant or from
narrow ranges, set sizes are fixed while their elements are drawn, and many
light calls are drawn one per stratum of their range.  Otherwise the seed,
not the code, would set the spread of the metrics.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

WORKLOADS = ("closed_form", "correlation", "enumeration", "cli")

# Large N for the closed forms: 16 values spread over [5e5, 1e6].  Entry i
# and entry 15 - i sum to about 1.5e6, so a pair of them costs the same
# whichever i the seed picks.
LARGE_N = tuple(500_000 + 31_250 * i + (7919 * i) % 997 for i in range(16))

# Small N: log-spaced over [10, 1e4].  A seed draws one value from each of
# 128 consecutive strata, so the distribution of job sizes is fixed.
SMALL_N = tuple(sorted({round(10 * 1000 ** (i / 319)) for i in range(320)}))
SMALL_STRATA = 128

# Unrelated entries in the cli workload's cache at the start of each pass;
# every lookup scans all of them.
PREFILL_LINES = 4000

# Workloads whose job times are scaled to reference seconds (speed.py).
# Over five seeds the scaling cut the spread of wall_s on closed_form from
# 10% to 4%, and widened it on enumeration and cli.
CALIBRATED = ("closed_form", "correlation")

# Prime-power moduli cheap enough for the residue oracle in every pass.
CHEAP_MODULI = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1))


@dataclass(frozen=True)
class FromJob:
    """Placeholder argument: the result of an earlier job of the same pass."""

    index: int


@dataclass
class Job:
    """One unit of work.  `target` is "module.function" for a library call
    (resolved on the module at call time, so trace wrappers apply) or "cli"
    for a subprocess whose arguments are `args`."""

    target: str
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    tag: str = ""

    def label(self) -> str:
        if self.target == "cli":
            return "cli " + " ".join(self.args)
        shown = [a for a in self.args if not isinstance(a, FromJob)]
        return f"{self.target}{tuple(shown)}"


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def small_n_choice(rng: random.Random) -> list[int]:
    bounds = [round(i * len(SMALL_N) / SMALL_STRATA) for i in range(SMALL_STRATA + 1)]
    return [rng.choice(SMALL_N[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def _primes_below(limit: int) -> list[int]:
    sieve = bytearray([1]) * limit
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(limit) if sieve[p]]


def closed_form(seed: int) -> list[Job]:
    """The O(N) closed forms, the p-adic closed forms and the certificate.
    The oracle, the correlation and rank3 do no work here."""
    from commucount.padic import PadicParams

    rng = random.Random(seed)
    jobs = []
    i = rng.randrange(len(LARGE_N))
    jobs.append(Job("count2.count_commuting_2x2", (LARGE_N[i],)))
    jobs.append(Job("count2.gamma_split", (LARGE_N[-1 - i],)))
    # r_zero takes the two ends of the range, so the largest N of a pass,
    # which sets peak_rss_mb, is the same for every seed.
    jobs.append(Job("divisor.r_zero", (LARGE_N[0],)))
    jobs.append(Job("divisor.r_zero", (LARGE_N[-1],)))
    for n in small_n_choice(rng):
        jobs.append(Job("count2.count_commuting_2x2", (n,)))
        jobs.append(Job("count2.gamma_split", (n,)))
        jobs.append(Job("divisor.r_zero", (n,)))
    primes = _primes_below(10_000)
    moduli = [rng.choice(CHEAP_MODULI) for _ in range(4)]
    for _ in range(8):
        p = rng.choice(primes)
        moduli.append((p, rng.randint(1, int(63 / math.log2(p)))))
    for p, n in moduli:
        params = PadicParams(p, n)
        jobs.append(Job("padic.fast_padic_count", (params,)))
        jobs.append(Job("padic.valuation_classes_fast", (params,)))
    for d in (2, 2, 2, 3, 3, 3):
        jobs.append(Job("rank3.lower_bound_certificate", (d, rng.randint(0, 10_000))))
    rng.shuffle(jobs)
    return jobs


def _lemma61_sets(rng: random.Random) -> list[tuple[str, list[int]]]:
    """The set mix.  Sizes are fixed and values seeded: the route
    lemma61_check takes, and so its cost, follows the size."""
    sets = []
    # Small values: twelve sets of 22 take the dict route and make a block
    # of like jobs in the middle of the job times, so job_ms_p50 lands in
    # it for every seed; 150 and 200 take the dense big-integer route.
    for size in [22] * 12 + [150, 200]:
        sets.append(("small", rng.sample(range(-150, 151), size)))
    # 40 elements take the dict route, 56 the sorted int64 route.
    for size in (40, 56):
        sets.append(("mid", rng.sample(range(-10**6, 10**6 + 1), size)))
    for size in (2, 6, 10, 14, 18, 24):
        sets.append(("huge", rng.sample(range(-10**9, 10**9 + 1), size)))
    a, d = rng.randint(-1000, 1000), rng.randint(1, 50)
    sets.append(("arith", [a + d * k for k in range(32)]))
    r = rng.randrange(1, 100, 2) * rng.choice((-1, 1))
    sets.append(("geom", [r * 2**k for k in range(80)]))
    return sets


def correlation(seed: int) -> list[Job]:
    """Big-integer correlation and product distributions.  The closed forms
    of count2, the oracle and rank3 do no work here."""
    rng = random.Random(seed)
    jobs: list[Job] = []
    # The heavy calls are drawn from narrow ranges so that the few slowest
    # jobs, which set job_ms_p90, cost about the same for every seed.
    for n in (rng.randint(170, 180), rng.randint(170, 180)):
        t = FromJob(len(jobs))
        jobs.append(Job("divisor.r_table", (n,)))
        jobs.append(Job("divisor.moment", (n, 2), {"table": t}))
        jobs.append(Job("divisor.moment", (n, 3), {"table": t}))
        for _ in range(4):
            h = rng.randint(1, 2 * n * n) * rng.choice((-1, 1))
            jobs.append(Job("divisor.divisor_bound_check", (n, h), {"table": t}))
    for x in (rng.randint(110_000, 130_000), rng.randint(110_000, 130_000)):
        jobs.append(Job("divisor.classic_divisor_correlation", (x, rng.randint(1, 100))))
    heads = len(jobs)
    for tag, values in _lemma61_sets(rng):
        jobs.append(Job("divisor.lemma61_check", (values,), tag=tag))
    # Tables come first in the pass because later jobs read them; the rest
    # runs in a seeded order.
    tail = jobs[heads:]
    rng.shuffle(tail)
    return jobs[:heads] + tail


def enumeration(seed: int) -> list[Job]:
    """The oracle's enumerations and the rank classification.  The closed
    forms and the correlation do no work here."""
    rng = random.Random(seed)
    jobs = [
        Job("oracle.brute_commuting_count", (3, 1), {"threads": 1}),
        Job("rank3.classify_commuting_3x3", (1,), {"threads": 1}),
        Job("oracle.brute_commuting_count", (2, 3)),
    ]
    # Fourteen 2x2 enumerations at N = 2 sit in the middle of the job times,
    # so job_ms_p50 does not depend on which cheap moduli the seed picks.
    jobs += [Job("oracle.brute_commuting_count", (2, 2)) for _ in range(14)]
    jobs += [Job("oracle.brute_commuting_count", (2, rng.randint(0, 1))) for _ in range(2)]
    moduli = [(13, 1), (11, 1)] + [rng.choice(CHEAP_MODULI) for _ in range(6)]
    for p, n in moduli:
        jobs.append(Job("oracle.brute_padic_solutions", (p, n)))
        jobs.append(Job("oracle.brute_valuation_classes", (p, n)))
    rng.shuffle(jobs)
    return jobs


def cli(seed: int) -> list[Job]:
    """Sequential CLI invocations over a cache that starts with unrelated
    entries.  The first invocation of a cached key misses and stores, a
    repeat of it hits and replays, and --no-cache bypasses the cache."""
    rng = random.Random(seed)
    n2 = rng.randint(50, 300)
    p, k = rng.choice(CHEAP_MODULI + ((11, 1),))
    lb = rng.randint(1, 10_000)
    nz = rng.randint(50, 300)
    nd = rng.randint(20, 60)
    h = rng.randint(1, 2 * nd * nd)
    x = rng.randint(5_000, 20_000)
    repeated = [
        ("count2", "--n", str(n2)),
        ("padic", "--p", str(p), "--n", str(k)),
        ("lowerbound", "--d", "3", "--n", str(lb)),
        ("divisor", "--n", str(nd), "--h", str(h)),
        ("moments", "--n", str(nd), "--k", "2"),
    ]
    once = [
        ("divisor", "--n", str(nz), "--zero"),
        ("dx", "--x", str(x), "--h", str(rng.randint(1, 50))),
        ("count3", "--n", "0"),
        ("demo4x4", "--seed", str(rng.randint(0, 10**6))),
        ("divisor", "--n", str(rng.randint(2, 6)), "--all"),
        ("count2", "--n", str(rng.randint(50, 300)), "--no-cache"),
        ("padic", "--p", str(p), "--n", str(k), "--method", "classes", "--no-cache"),
    ]
    argvs = repeated + repeated + once
    rng.shuffle(argvs)
    return [Job("cli", argv) for argv in argvs]


def cache_prefill(seed: int, version: str) -> str:
    """PREFILL_LINES seeded cache entries in the CLI's own line format, with
    parameters outside every range the cli jobs use, so no job key can
    match one."""
    rng = random.Random(seed * 7919 + 1)
    out = []
    for _ in range(PREFILL_LINES):
        command = rng.choice(("count2", "divisor", "moments", "dx", "lowerbound"))
        if command == "count2":
            params = {"n": rng.randint(10**6, 10**9), "split": rng.random() < 0.5}
        elif command == "divisor":
            params = {"all": False, "h": rng.randint(1, 10**6), "n": rng.randint(10**3, 10**4),
                      "zero": False}
        elif command == "moments":
            params = {"k": rng.randint(1, 4), "n": rng.randint(10**3, 10**4)}
        elif command == "dx":
            params = {"h": rng.randint(1000, 10**6), "x": rng.randint(10**6, 10**7)}
        else:
            params = {"d": 2, "n": rng.randint(10**5, 10**9)}
        result = {"command": command, "diagnostics": {}, "params": params,
                  "runtime_ms": rng.randint(0, 5000), "value": str(rng.getrandbits(160))}
        key = json.dumps({"command": command, "params": params, "version": version},
                         sort_keys=True)
        out.append(json.dumps({"key": key, "result": result}, sort_keys=True))
    return "\n".join(out) + "\n"


GENERATORS = {
    "closed_form": closed_form,
    "correlation": correlation,
    "enumeration": enumeration,
    "cli": cli,
}


def warmup_jobs(workload: str) -> list[Job]:
    """Small calls through the same code paths, run once during set-up."""
    from commucount.padic import PadicParams

    if workload == "closed_form":
        params = PadicParams(3, 2)
        return [
            Job("count2.count_commuting_2x2", (20,)),
            Job("count2.gamma_split", (20,)),
            Job("divisor.r_zero", (20,)),
            Job("padic.fast_padic_count", (params,)),
            Job("padic.valuation_classes_fast", (params,)),
            Job("rank3.lower_bound_certificate", (3, 2)),
        ]
    if workload == "correlation":
        return [
            Job("divisor.r_table", (12,)),
            Job("divisor.moment", (12, 2), {"table": FromJob(0)}),
            Job("divisor.divisor_bound_check", (12, 5), {"table": FromJob(0)}),
            Job("divisor.classic_divisor_correlation", (1000, 1)),
            Job("divisor.lemma61_check", ([1, 2, 3, 5, 8],)),
        ]
    if workload == "enumeration":
        return [
            Job("oracle.brute_commuting_count", (3, 0), {"threads": 1}),
            Job("rank3.classify_commuting_3x3", (0,), {"threads": 1}),
            Job("oracle.brute_commuting_count", (2, 1)),
            Job("oracle.brute_padic_solutions", (2, 1)),
            Job("oracle.brute_valuation_classes", (2, 1)),
        ]
    return [Job("cli", ("count2", "--n", "5", "--no-cache"))]
