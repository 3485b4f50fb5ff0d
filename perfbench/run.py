"""The commucount benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload closed_form --seed 1 --seconds 28 --trace 0

Run from the root of a checkout; it measures the package under `src/` of
that checkout and refuses to run without it.  The process

1. generates the seeded jobs and runs the warm-up calls;
2. repeats passes over the job list, one job at a time, until the next pass
   would end after `--seconds` spent in passes;
3. after each pass, until there are SETUP_RUNS of them, times one set-up in
   a fresh process, from its start until it has imported the package,
   generated the jobs and run the warm-up (`setup_s` is their median);
4. checks every result outside the timed region (check.py);
5. prints a readable summary, then one JSON line with the metrics that
   BENCHMARK.json lists: the end-to-end ones with `--trace 0`, the per-layer
   ones with `--trace 1`.

With `--trace 1`, untraced and traced passes alternate; the traced ones run
with the wrappers of spans.py, whose spans are written to
`.perfbench_out/trace-<workload>-<seed>.jsonl`.  `--record FILE` appends the
result line, tagged with workload, seed and trace flag, to FILE for
compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import workloads
from speed import REFERENCE_S, Speedometer
from workloads import FromJob

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_RUNS = 5
INTERPRETER_RUNS = 5

END_TO_END_UNITS = {
    "wall_s": "s",
    "job_ms_p50": "ms",
    "job_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="commucount benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None, help="append the result line to this file")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# --- jobs --------------------------------------------------------------------


def call(job, results):
    module, name = job.target.split(".")
    fn = getattr(sys.modules["commucount." + module], name)
    args = [results[a.index] if isinstance(a, FromJob) else a for a in job.args]
    kwargs = {k: results[v.index] if isinstance(v, FromJob) else v
              for k, v in job.kwargs.items()}
    return fn(*args, **kwargs)


class Invoker:
    """Runs CLI invocations one at a time through spawner.py."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.spawner = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, text=True)

    def close(self):
        self.spawner.stdin.close()
        self.spawner.stdout.close()
        self.spawner.wait()

    def run(self, args, env, traced: bool):
        """(exit code, stdout, peak RSS in KiB, start, end, shim spans)."""
        if traced:
            argv = [sys.executable, str(HERE / "cli_traced.py"), *args]
            env = dict(env, PERFBENCH_SPANS=str(self.tmp / "spans.json"))
        else:
            argv = [sys.executable, "-m", "commucount.cli", *args]
        request = {"argv": argv, "env": env, "cwd": str(ROOT),
                   "stdout": str(self.tmp / "stdout"), "stderr": str(self.tmp / "stderr.log")}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        out = (self.tmp / "stdout").read_bytes()
        shim = None
        if traced and reply["code"] == 0:
            with open(self.tmp / "spans.json", encoding="utf-8") as fh:
                shim = json.load(fh)
        return reply["code"], out, reply["maxrss_kib"], reply["start"], reply["end"], shim


def child_env(cache_dir: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "COMMUCOUNT_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    env["COMMUCOUNT_CACHE_DIR"] = str(cache_dir)
    return env


# --- set-up --------------------------------------------------------------------


def prepare(workload: str, seed: int, tmp: Path, invoker: Invoker | None):
    """Generate the jobs and run the warm-up; what `setup_s` times."""
    jobs = workloads.GENERATORS[workload](seed)
    if workload == "cli":
        import commucount

        prefill = workloads.cache_prefill(seed, commucount.__version__)
        env = child_env(tmp / "warmup-cache")
        for job in workloads.warmup_jobs(workload):
            code, *_ = invoker.run(job.args, env, traced=False)
            if code != 0:
                raise RuntimeError(f"warm-up {job.label()} exited with {code}")
        return jobs, prefill
    results: list = []
    for job in workloads.warmup_jobs(workload):
        results.append(call(job, results))
    return jobs, None


def interpreter_ms() -> float:
    times = []
    for _ in range(INTERPRETER_RUNS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, cwd=ROOT)
        times.append((perf_counter() - start) * 1000)
    return statistics.median(times)


# --- passes --------------------------------------------------------------------


class Run:
    """The passes of one run and what they produced."""

    def __init__(self, workload, jobs, seed, tmp, invoker, prefill, checker):
        self.workload = workload
        self.jobs = jobs
        self.seed = seed
        self.tmp = tmp
        self.invoker = invoker
        self.prefill = prefill
        self.checker = checker
        self.speed = Speedometer(workload in workloads.CALIBRATED)
        # (start, seconds) of each job in each pass, and the raw wall time
        # of each pass, kept apart for untraced (False) and traced (True)
        # passes.
        self.times: dict[bool, list[list[tuple[float, float]]]] = {False: [], True: []}
        self.walls: dict[bool, list[float]] = {False: [], True: []}
        self.attempted = 0
        self.failures: list[str] = []
        self.failed: set[tuple[int, int]] = set()
        self.passes = 0
        self.first_results: list | None = None
        self.first_errors: dict[int, str] = {}
        self.peak_rss_kib = 0
        self.cli_peaks: list[list[int]] = []
        self.cli_import_ms: list[float] = []
        self.cli_lookups = 0
        self.cli_hits = 0

    def run_pass(self, number: int, recorder) -> None:
        self.speed.sample()
        if self.workload == "cli":
            wall, times = self._cli_pass(number, recorder)
        else:
            wall, times = self._library_pass(number, recorder)
        self.speed.sample()
        self.attempted += len(self.jobs)
        self.passes += 1
        self.times[recorder is not None].append(times)
        self.walls[recorder is not None].append(wall)

    def traced_passes(self):
        """(pass number, job times) of the traced passes, which are the odd
        ones."""
        return [(2 * k + 1, times) for k, times in enumerate(self.times[True])]

    def job_seconds(self, traced: bool) -> list[float]:
        """Each job's median, over the passes of one kind, of its time in
        reference seconds."""
        scaled = [[t * self.speed.factor(t0) for t0, t in p] for p in self.times[traced]]
        return [statistics.median(column) for column in zip(*scaled)]

    def setup_seconds(self) -> float:
        """One set-up in a fresh process, from its start until it is ready."""
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", self.workload,
             "--seed", str(self.seed), "--setup-only"],
            stdout=subprocess.PIPE, cwd=ROOT)
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != b"ready":
            raise RuntimeError("a set-up process failed")
        return elapsed

    def _library_pass(self, number, recorder):
        results = [None] * len(self.jobs)
        errors = {}
        times = []
        start = perf_counter()
        for i, job in enumerate(self.jobs):
            if recorder is not None:
                recorder.job = f"{number}:{i}"
            self.speed.sample_if_due()
            t0 = perf_counter()
            try:
                results[i] = call(job, results)
            except Exception:  # a failing job is counted, and the pass goes on
                errors[i] = traceback.format_exc(limit=-1).strip()
            times.append((t0, perf_counter() - t0))
        wall = perf_counter() - start
        if self.first_results is None:
            self.first_results, self.first_errors = results, errors
        for i, job in enumerate(self.jobs):
            if i in errors:
                self.fail(number, i, f"{job.label()}: {errors[i]}")
            elif number and results[i] != self.first_results[i]:
                self.fail(number, i, f"{job.label()}: differs from pass 0")
        return wall, times

    def _cli_pass(self, number, recorder):
        cache = Path(tempfile.mkdtemp(dir=self.tmp))
        (cache / "results.jsonl").write_text(self.prefill, encoding="utf-8")
        env = child_env(cache)
        outcomes = []
        times = []
        peaks = []
        start = perf_counter()
        for i, job in enumerate(self.jobs):
            self.speed.sample_if_due()
            code, out, rss, t0, t1, shim = self.invoker.run(job.args, env, recorder is not None)
            times.append((t0, t1 - t0))
            outcomes.append((code, out))
            if recorder is None:
                peaks.append(rss)
            else:
                recorder.job = f"{number}:{i}"
                self._add_cli_spans(recorder, t0, t1, shim)
        wall = perf_counter() - start
        if peaks:
            self.cli_peaks.append(peaks)
        shutil.rmtree(cache)
        for i, verdict in enumerate(self.checker.check_cli_pass(self.jobs, outcomes)):
            if verdict is not None:
                self.fail(number, i, verdict)
        return wall, times

    def _add_cli_spans(self, recorder, t0, t1, shim):
        top = recorder.add("cli.invocation", t0, t1, -1)
        if shim is None:
            return
        recorder.add("cli.startup", t0, shim["spans"][0][1], top)
        index = {-1: top}
        for local, (name, start, end, parent) in enumerate(shim["spans"]):
            index[local] = recorder.add(name, start, end, index[parent])
        import_span = shim["spans"][0]
        self.cli_import_ms.append((import_span[2] - import_span[1]) * 1000)
        self.cli_lookups += shim["lookups"]
        self.cli_hits += shim["hits"]

    def check_first_pass(self) -> None:
        if self.workload == "cli":
            return
        for i, job in enumerate(self.jobs):
            if i in self.first_errors:
                continue
            try:
                self.checker.check(job, self.first_results[i])
            except Exception as exc:  # every mismatch is reported, not raised
                # Later passes returned the same value, so it is wrong in all.
                for number in range(self.passes):
                    self.fail(number, i, f"{job.label()}: {exc!r}")
        self.first_results = None

    def fail(self, number: int, index: int, why: str) -> None:
        self.failed.add((number, index))
        self.failures.append(f"pass {number}: {why}")


def measure(run: Run, seconds: float, recorder) -> list[float]:
    """Passes until the next one would take the time spent in passes past
    `seconds`, and the set-up samples, one after each pass and the rest at
    the end, so that they see the machine at different moments.  With a
    recorder, untraced and traced passes alternate, starting untraced."""
    spent = 0.0
    setups: list[float] = []
    number = 0
    while True:
        start = perf_counter()
        if recorder is not None and number % 2 == 1:
            with recorder.instrument():
                run.run_pass(number, recorder)
        else:
            run.run_pass(number, None)
        spent += perf_counter() - start
        number += 1
        if len(setups) < SETUP_RUNS:
            setups.append(run.setup_seconds())
        if number >= (2 if recorder is not None else 1) and spent * (number + 1) / number > seconds:
            break
    while len(setups) < SETUP_RUNS:
        setups.append(run.setup_seconds())
    return setups


# --- reporting --------------------------------------------------------------------


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def machine_facts() -> str:
    import numpy

    import commucount

    return (f"commucount {commucount.__version__} from {commucount.__file__}; "
            f"python {sys.version.split()[0]}; numpy {numpy.__version__}; "
            f"nproc {os.cpu_count()}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "commucount" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'commucount'}; run from a checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("COMMUCOUNT_THREADS", None)
    sys.path.insert(0, str(SRC))
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_ROOT))
    # In-process code never touches the cache; pointing it here anyway keeps
    # any stray use away from the user's cache.
    os.environ["COMMUCOUNT_CACHE_DIR"] = str(tmp / "cache")
    invoker = Invoker(tmp) if args.workload == "cli" else None
    try:
        import commucount

        if Path(commucount.__file__).resolve().parent != (SRC / "commucount").resolve():
            print(f"error: imported {commucount.__file__}, not the package under {SRC}",
                  file=sys.stderr)
            return 2
        if args.setup_only:
            prepare(args.workload, args.seed, tmp, invoker)
            print("ready", flush=True)
            return 0
        return benchmark(args, tmp, invoker)
    finally:
        if invoker is not None:
            invoker.close()
        shutil.rmtree(tmp, ignore_errors=True)


def benchmark(args, tmp: Path, invoker) -> int:
    from check import Checker
    from spans import LAYER_METRICS, Recorder, layer_metrics

    jobs, prefill = prepare(args.workload, args.seed, tmp, invoker)
    checker = Checker(workloads.load_reference())
    run = Run(args.workload, jobs, args.seed, tmp, invoker, prefill, checker)
    recorder = Recorder() if args.trace else None
    setups = measure(run, args.seconds, recorder)
    if args.workload == "cli":
        # The largest invocation, each at its median over the passes: a
        # single invocation's peak moves by megabytes from run to run.
        run.peak_rss_kib = max(statistics.median(c) for c in zip(*run.cli_peaks))
    else:
        run.peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    run.check_first_pass()

    failed = len(run.failed)
    job_ms = [t * 1000 for t in run.job_seconds(False)]
    print(f"# {machine_facts()}")
    print(f"# workload {args.workload}, seed {args.seed}: {len(jobs)} jobs a pass, "
          f"{len(run.walls[False])} untraced and {len(run.walls[True])} traced passes; "
          f"each job's time is its median over the untraced passes"
          f"{' in reference seconds' if run.speed.enabled else ''}, so the percentiles "
          f"rest on {len(job_ms)} samples")
    print(f"# median untraced pass: {statistics.median(run.walls[False]):.4f} s as measured")
    if run.speed.enabled:
        print(f"# calibration kernel: median {statistics.median(run.speed.samples) * 1000:.3f} ms "
              f"over {len(run.speed.samples)} samples, reference {REFERENCE_S * 1000:.3f} ms")
    end_to_end = {
        "wall_s": sum(job_ms) / 1000,
        "job_ms_p50": statistics.median(job_ms),
        "job_ms_p90": percentile(job_ms, 90),
        "peak_rss_mb": run.peak_rss_kib / 1024,
        "setup_s": statistics.median(setups),
    }
    for name, value in end_to_end.items():
        print(f"# {name:<12} {value:12.4f} {END_TO_END_UNITS[name]}")
    print(f"# {'fail_ratio':<12} {failed / run.attempted:12.4f} ({failed}/{run.attempted})")
    for failure in run.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)

    if args.trace:
        extra = {}
        if args.workload == "cli":
            extra = {
                "cli.interpreter_ms": interpreter_ms(),
                "cli.import_ms": statistics.median(run.cli_import_ms),
                "cli.cache.hit_ratio": run.cli_hits / max(1, run.cli_lookups),
            }
        factors = {f"{n}:{i}": run.speed.factor(t0)
                   for n, times in run.traced_passes() for i, (t0, _) in enumerate(times)}
        values = layer_metrics(recorder, [job.tag for job in jobs], factors, run.walls[True],
                               sum(run.job_seconds(True)) / sum(run.job_seconds(False)) - 1,
                               extra)
        OUT_DIR.mkdir(exist_ok=True)
        recorder.write(OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl")
        for name, value in values.items():
            print(f"# {name:<46} {value:14.6g} {LAYER_METRICS[name][0]}")
        metrics = {name: {"value": value, "unit": LAYER_METRICS[name][0]}
                   for name, value in values.items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in end_to_end.items()}

    result = {"correct": failed == 0, "attempted": run.attempted, "failed": failed,
              "metrics": metrics}
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, "result": result}) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
