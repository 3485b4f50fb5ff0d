"""Spans and counters recorded from outside the program.

`Recorder.instrument()` replaces the public functions and methods named in
FUNCTIONS and METHODS with wrappers, both on the module that defines them and
on every commucount module that imported the name, and puts the originals
back on exit.  A span is [name, start, end, parent index, job id]; spans stay
in memory until the run ends.  Self time is a span's duration minus the
durations of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter


def _states_3x3(n: int) -> int:
    side = 2 * n + 1
    return side**9 * (side**5 + side**4)


def _count_states_brute(counters, args, kwargs):
    d, n = args[0], args[1]
    counters["oracle.states_enumerated"] += (2 * n + 1) ** 8 if d == 2 else _states_3x3(n)


def _count_states_classify(counters, args, kwargs):
    counters["oracle.states_enumerated"] += _states_3x3(args[0])


def _count_states_residues(counters, args, kwargs):
    counters["oracle.states_enumerated"] += (args[0] ** args[1]) ** 6


def _count_rank_rows(counters, args, kwargs):
    counters["rank3.batched_rank.rows"] += args[0].shape[0]


def _count_states_charged(counters, args, kwargs):
    counters["oracle.WorkBudget.states_charged"] += args[1]


def _count_operand_bytes(counters, args, result):
    # Both operands of the big-integer product: 2N^2 + 1 digits of 4 bytes,
    # or 8 once the centre value r_N(0) needs more than 32 bits.
    support = 2 * args[0] ** 2 + 1
    width = 4 if result.value(0) < 2**32 else 8
    counters["divisor.r_table.operand_bytes"] += 2 * support * width


# (module, function, span name, counter called with the arguments,
#  counter called with the arguments and the result)
FUNCTIONS = [
    ("core", "totient_sieve", "core.totient_sieve", None, None),
    ("core", "product_distribution", "core.product_distribution", None, None),
    ("count2", "count_commuting_2x2", "count2.count_commuting_2x2", None, None),
    ("count2", "gamma_split", "count2.gamma_split", None, None),
    ("divisor", "r_zero", "divisor.r_zero", None, None),
    ("divisor", "r_table", "divisor.r_table", None, _count_operand_bytes),
    ("divisor", "moment", "divisor.moment", None, None),
    ("divisor", "divisor_bound_check", "divisor.divisor_bound_check", None, None),
    ("divisor", "classic_divisor_correlation", "divisor.classic_divisor_correlation", None, None),
    ("divisor", "lemma61_check", "divisor.lemma61_check", None, None),
    ("padic", "fast_padic_count", "padic.fast_padic_count", None, None),
    ("padic", "valuation_classes_fast", "padic.valuation_classes_fast", None, None),
    ("oracle", "brute_commuting_count", "oracle.brute_commuting_count", _count_states_brute, None),
    ("oracle", "brute_padic_solutions", "oracle.brute_padic_solutions", _count_states_residues, None),
    ("oracle", "brute_valuation_classes", "oracle.brute_valuation_classes", _count_states_residues, None),
    ("rank3", "classify_commuting_3x3", "rank3.classify_commuting_3x3", _count_states_classify, None),
    ("rank3", "batched_rank", "rank3.batched_rank", _count_rank_rows, None),
    ("rank3", "lower_bound_certificate", "rank3.lower_bound_certificate", None, None),
]

# (module, class, method, span name or None for a counter only, counter)
METHODS = [
    ("oracle", "MeetInMiddle3", "__init__", "oracle.MeetInMiddle3.init", None),
    ("oracle", "MeetInMiddle3", "count_for_a", "oracle.MeetInMiddle3.count_for_a", None),
    ("oracle", "MeetInMiddle3", "partners_for_a", "oracle.MeetInMiddle3.partners_for_a", None),
    ("oracle", "WorkBudget", "require", None, _count_states_charged),
]

# Each layer metric, its unit, and the end-to-end metric and workload it
# should move.  Time metrics are seconds per pass, counts are per pass.
LAYER_METRICS = {
    "core.totient_sieve.self_s": ("s", "wall_s", "closed_form"),
    "core.product_distribution.self_s": ("s", "wall_s", "correlation"),
    "count2.count_commuting_2x2.self_s": ("s", "wall_s job_ms_p90", "closed_form"),
    "count2.gamma_split.self_s": ("s", "wall_s job_ms_p90", "closed_form"),
    "divisor.r_zero.self_s": ("s", "wall_s", "closed_form"),
    "divisor.r_table.self_s": ("s", "wall_s peak_rss_mb", "correlation"),
    "divisor.r_table.operand_bytes": ("bytes", "computed count", "correlation"),
    "divisor.moment.self_s": ("s", "wall_s", "correlation"),
    "divisor.classic_divisor_correlation.self_s": ("s", "wall_s", "correlation"),
    "divisor.lemma61_check.small.busy_s": ("s", "wall_s job_ms_p50", "correlation"),
    "divisor.lemma61_check.mid.busy_s": ("s", "wall_s job_ms_p50", "correlation"),
    "divisor.lemma61_check.huge.busy_s": ("s", "wall_s job_ms_p50", "correlation"),
    "divisor.lemma61_check.arith.busy_s": ("s", "wall_s job_ms_p50", "correlation"),
    "divisor.lemma61_check.geom.busy_s": ("s", "wall_s job_ms_p50", "correlation"),
    "padic.fast_padic_count.self_s": ("s", "job_ms_p50", "closed_form"),
    "oracle.MeetInMiddle3.count_for_a.self_s": ("s", "wall_s", "enumeration"),
    "oracle.MeetInMiddle3.count_for_a.calls": ("count", "recorded count", "enumeration"),
    "oracle.MeetInMiddle3.partners_for_a.self_s": ("s", "wall_s", "enumeration"),
    "oracle.MeetInMiddle3.init.self_s": ("s", "setup_s", "enumeration"),
    "oracle.brute_padic_solutions.self_s": ("s", "wall_s", "enumeration"),
    "oracle.brute_valuation_classes.self_s": ("s", "wall_s", "enumeration"),
    "oracle.WorkBudget.states_charged": ("count", "recorded count", "enumeration"),
    "oracle.states_enumerated": ("count", "computed count", "enumeration"),
    "rank3.classify_commuting_3x3.self_s": ("s", "wall_s", "enumeration"),
    "rank3.batched_rank.self_s": ("s", "wall_s", "enumeration"),
    "rank3.batched_rank.rows": ("count", "recorded count", "enumeration"),
    "cli.interpreter_ms": ("ms", "floor of job_ms_p50", "cli"),
    "cli.import_ms": ("ms", "job_ms_p50", "cli"),
    "cli.cache_lookup.self_s": ("s", "job_ms_p50 job_ms_p90", "cli"),
    "cli.cache_store.self_s": ("s", "job_ms_p50 job_ms_p90", "cli"),
    "cli.cache.hit_ratio": ("ratio", "job_ms_p50", "cli"),
    "cli.handler.self_s": ("s", "job_ms_p50", "cli"),
    "trace.accounted_frac": ("ratio", "top-level span time over traced wall_s", "all"),
    "trace_overhead_frac": ("ratio", "traced over untraced wall_s, minus 1", "all"),
}


class Recorder:
    """In-memory spans and counters of one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.job = None
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.job])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: int) -> int:
        """A finished span measured elsewhere, such as in a child process."""
        self.spans.append([name, start, end, parent, self.job])
        return len(self.spans) - 1

    def _wrap(self, fn, name, before=None, after=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(rec.counters, args, kwargs)
            if name is None:
                return fn(*args, **kwargs)
            index = rec.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(index)
            if after is not None:
                after(rec.counters, args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def instrument(self):
        patched = []
        modules = [m for k, m in sys.modules.items() if k.startswith("commucount")]
        try:
            for mod, func, name, before, after in FUNCTIONS:
                original = getattr(importlib.import_module("commucount." + mod), func)
                wrapper = self._wrap(original, name, before, after)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            patched.append((module, attr, original))
                            setattr(module, attr, wrapper)
            for mod, cls_name, meth, name, before in METHODS:
                cls = getattr(importlib.import_module("commucount." + mod), cls_name)
                original = cls.__dict__[meth]
                patched.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, name, before))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def self_times(self, factors: dict) -> dict[str, float]:
        """Total self time by span name, each span scaled by the factor of
        its job."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, job) in enumerate(self.spans):
            totals[name] += (end - start - child[i]) * factors[job]
        return totals

    def top_level_seconds(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")


def layer_metrics(rec: Recorder, tags: list[str], factors: dict, traced_walls: list[float],
                  overhead: float, extra: dict) -> dict[str, float]:
    """Every metric of LAYER_METRICS, per traced pass.  `tags` holds the tag
    of each job of a pass, by index; `factors` the reference-speed scale of
    each job of the traced passes, by job id; `overhead` the traced pass
    time over the untraced one, minus 1."""
    passes = len(traced_walls)
    self_s = rec.self_times(factors)
    values = {name: 0.0 for name in LAYER_METRICS}
    for name in values:
        if name.endswith(".self_s"):
            values[name] = self_s.get(name[: -len(".self_s")], 0.0) / passes
    for name, count in rec.counters.items():
        values[name] = count / passes
    values["oracle.MeetInMiddle3.count_for_a.calls"] = sum(
        1 for s in rec.spans if s[0] == "oracle.MeetInMiddle3.count_for_a") / passes
    for name, start, end, _, job in rec.spans:
        if name == "divisor.lemma61_check" and job is not None:
            tag = tags[int(job.split(":")[1])]
            values[f"divisor.lemma61_check.{tag}.busy_s"] += (end - start) * factors[job] / passes
    values.update(extra)
    values["trace.accounted_frac"] = rec.top_level_seconds() / sum(traced_walls)
    values["trace_overhead_frac"] = overhead
    return values
