"""Compare two result sets of the benchmark, or summarise one.

    python3 perfbench/compare.py BASE.jsonl [CHANGE.jsonl]

A result set is the file that `run.py --record FILE` appends to: one line
per run, with its workload, seed and trace flag.  Only untraced runs are
read.  With one file, each (workload, metric) gets its median, quartiles and
spread (the distance between the quartiles over the median) next to the
bound from BENCHMARK.json; a spread under a third of the bound is steady.

With two files, runs are paired by workload and seed, and each pair of
(workload, metric) is reported as

- better: the change wins at least nine tenths of the pairs (ties count for
  neither side) and the medians differ by more than the distance between
  the base's quartiles;
- worse: the change's median is worse than the base's by more than the
  bound;
- unresolved: the base's spread is wider than the bound, unless every run of
  the change is better than every run of the base;
- same: none of these.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    """{workload: {seed: result}} of the untraced runs in `path`."""
    runs = defaultdict(dict)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                entry = json.loads(line)
                if entry["trace"] == 0:
                    runs[entry["workload"]][entry["seed"]] = entry["result"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarise(runs, metrics):
    print(f"{'workload':<12} {'metric':<12} {'runs':>4} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}  verdict")
    for workload, by_seed in sorted(runs.items()):
        failed = sum(r["failed"] for r in by_seed.values())
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in by_seed.values()]
            q1, q2, q3 = quartiles(values)
            spread = (q3 - q1) / q2
            steady = "steady" if spread < m["bound"] / 3 else "NOT steady"
            print(f"{workload:<12} {m['name']:<12} {len(values):>4} {q2:>12.5g} {q1:>12.5g} "
                  f"{q3:>12.5g} {spread:>7.3f} {m['bound']:>6.2f}  {steady}")
        print(f"{workload:<12} failed jobs in {len(by_seed)} runs: {failed}")


def verdict(base, change, better, bound):
    sign = 1 if better == "lower" else -1
    b1, bm, b3 = quartiles(base)
    _, cm, _ = quartiles(change)
    wins = sum(1 for b, c in zip(base, change) if sign * (b - c) > 0)
    losses = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    if (wins >= 0.9 * (wins + losses) and wins and sign * (bm - cm) > 0
            and abs(bm - cm) > b3 - b1):
        return "better"
    if sign * (cm - bm) / bm > bound:
        return "worse"
    all_better = all(sign * (b - c) > 0 for b in base for c in change)
    if (b3 - b1) / bm > bound and not all_better:
        return "unresolved"
    return "same"


def compare(base_runs, change_runs, metrics):
    print(f"{'workload':<12} {'metric':<12} {'pairs':>5} {'base':>12} {'change':>12} "
          f"{'delta':>8}  verdict")
    for workload in sorted(set(base_runs) & set(change_runs)):
        seeds = sorted(set(base_runs[workload]) & set(change_runs[workload]))
        for m in metrics:
            base = [base_runs[workload][s]["metrics"][m["name"]]["value"] for s in seeds]
            change = [change_runs[workload][s]["metrics"][m["name"]]["value"] for s in seeds]
            bm, cm = statistics.median(base), statistics.median(change)
            print(f"{workload:<12} {m['name']:<12} {len(seeds):>5} {bm:>12.5g} {cm:>12.5g} "
                  f"{(cm - bm) / bm:>+8.3f}  {verdict(base, change, m['better'], m['bound'])}")
        for name, runs in (("base", base_runs), ("change", change_runs)):
            failed = sum(runs[workload][s]["failed"] for s in seeds)
            print(f"{workload:<12} failed jobs ({name}): {failed}")


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(BENCHMARK, encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    if len(argv) == 1:
        summarise(load(argv[0]), metrics)
    else:
        compare(load(argv[0]), load(argv[1]), metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
