"""Every name the benchmark under `perfbench/` hooks or calls still exists,
so removing a function cannot silently break `perfbench/run.py --trace 1`.
The benchmark's files are only read here, never changed.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def resolve(module, name):
    return getattr(importlib.import_module("commucount." + module), name)


def test_every_traced_function_resolves():
    for module, func, *_ in load("spans").FUNCTIONS:
        assert callable(resolve(module, func)), f"{module}.{func}"


def test_every_traced_method_is_defined_on_its_class():
    for module, cls_name, meth, *_ in load("spans").METHODS:
        assert meth in resolve(module, cls_name).__dict__, f"{cls_name}.{meth}"


def test_the_references_of_the_checks_exist():
    assert isinstance(resolve("divisor", "RTable").__dict__["values"], property)
    assert callable(resolve("count2", "count_commuting_2x2_by_direction"))


@pytest.mark.parametrize("workload", ["closed_form", "correlation", "enumeration"])
def test_every_workload_job_target_resolves(workload):
    workloads = load("workloads")
    jobs = workloads.GENERATORS[workload](0) + workloads.warmup_jobs(workload)
    for target in {job.target for job in jobs}:
        assert callable(resolve(*target.split("."))), target


def test_every_traced_function_fires_in_the_warmup_jobs():
    # A span that never opens reads 0 in every traced run, which looks like
    # a layer that costs nothing; each one must be reached by some warmup.
    spans, workloads = load("spans"), load("workloads")
    for module, *_ in spans.FUNCTIONS:
        importlib.import_module("commucount." + module)
    # A benchmark process starts without the totient prefix table that
    # earlier tests may have built, so its warmups are the ones that sieve.
    importlib.import_module("commucount.core")._prefix_table.cache_clear()
    recorder = spans.Recorder()
    with recorder.instrument():
        for workload in ("closed_form", "correlation", "enumeration"):
            results = []
            for job in workloads.warmup_jobs(workload):
                module, name = job.target.split(".")
                fn = getattr(importlib.import_module("commucount." + module), name)
                args = [results[a.index] if isinstance(a, workloads.FromJob) else a for a in job.args]
                kwargs = {k: results[v.index] if isinstance(v, workloads.FromJob) else v
                          for k, v in job.kwargs.items()}
                results.append(fn(*args, **kwargs))
    silent = {name for _, _, name, *_ in spans.FUNCTIONS} - {span[0] for span in recorder.spans}
    assert not silent, sorted(silent)
