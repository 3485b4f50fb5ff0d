"""`python -m commucount.cli ARGS` with spans, for the traced cli passes.

    PERFBENCH_SPANS=out.json python perfbench/cli_traced.py count2 --n 10

Times the package import, and inside `main` the cache lookup, the command
handler and the cache store, then writes them with the lookup and hit counts
to the file named by PERFBENCH_SPANS.  Times are `perf_counter` readings,
which share one clock with the parent process.
"""

import json
import os
import sys
from time import perf_counter

start = perf_counter()
import commucount.cli as cli  # noqa: E402  (the import is what is timed)

spans = [["cli.import", start, perf_counter(), -1]]
stats = {"lookups": 0, "hits": 0}


def _wrap(name, fn):
    def wrapper(*args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spans.append([name, t0, perf_counter(), 1])

    return wrapper


def _lookup(fn):
    def wrapper(*args, **kwargs):
        hit = fn(*args, **kwargs)
        stats["lookups"] += 1
        stats["hits"] += hit is not None
        return hit

    return wrapper


cli.cache_lookup = _wrap("cli.cache_lookup", _lookup(cli.cache_lookup))
cli.cache_store = _wrap("cli.cache_store", cli.cache_store)
for command, handler in list(cli._HANDLERS.items()):
    cli._HANDLERS[command] = _wrap("cli.handler", handler)

spans.append(["cli.main", perf_counter(), None, -1])  # index 1: the wrappers' parent
code = cli.main(sys.argv[1:])
sys.stdout.flush()
spans[1][2] = perf_counter()
with open(os.environ["PERFBENCH_SPANS"], "w", encoding="utf-8") as fh:
    json.dump({"spans": spans, **stats}, fh)
sys.exit(code)
