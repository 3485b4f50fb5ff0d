"""Starts the CLI invocations of the cli workload from a small process.

    python -S perfbench/spawner.py

Linux records the high-water mark of the address space a process had before
`exec` in its `ru_maxrss`, and a spawned child starts in (a copy of) its
parent's.  Started from run.py, which holds numpy, the package
and the references, a CLI invocation would report run.py's memory.  This
process, far smaller than the CLI, starts them instead.

Reads one JSON request a line on stdin — argv, env, cwd, and the files for
the child's stdout and stderr — and answers each with one JSON line: exit
code, peak RSS in KiB, and the `perf_counter` readings at start and end
(the same clock as run.py's).
"""

import json
import os
import subprocess
import sys
from time import perf_counter

for line in sys.stdin:
    request = json.loads(line)
    with open(request["stdout"], "wb") as out, open(request["stderr"], "ab") as err:
        start = perf_counter()
        proc = subprocess.Popen(request["argv"], stdout=out, stderr=err,
                                env=request["env"], cwd=request["cwd"])
        _, status, usage = os.wait4(proc.pid, 0)
        end = perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"code": proc.returncode, "maxrss_kib": usage.ru_maxrss,
                      "start": start, "end": end}), flush=True)
