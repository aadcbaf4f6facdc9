"""Run the `mbrkit` CLI from the checkout's `src` and time its phases.

Usage: python3 bench/launch.py STAMP [mbrkit arguments ...]

Does what the `mbrkit` console script does (import `mbrkit.cli`, call
`run`) and writes one JSON object to STAMP:

- ``ready``: `time.monotonic()` once `mbrkit.cli` is imported, i.e. when the
  process could read its first input line. The clock is shared by all
  processes on the machine, so the caller subtracts its own start time.
- ``done``: the same clock after `run` returned, with the output closed.
- ``code``: the exit code `run` returned.
- ``cpu_s``: CPU seconds of this process between ready and done.
- ``rss_kb``: peak resident set of this process (`VmHWM`). `ru_maxrss` is
  not used for it because Linux carries it across exec, so it would also
  count the benchmark process this one was started from.
- ``children_cpu_s`` and ``children_rss_kb``: CPU seconds and the largest
  peak resident set of the worker processes `run` started and reaped.

With no mbrkit arguments it stops after the import: a set-up sample.
"""

import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import mbrkit.cli  # noqa: E402

ready = time.monotonic()
cpu0 = time.process_time()
code = mbrkit.cli.run(sys.argv[2:]) if len(sys.argv) > 2 else 0
done = time.monotonic()
cpu = time.process_time() - cpu0
kids = resource.getrusage(resource.RUSAGE_CHILDREN)
with open("/proc/self/status", encoding="ascii") as status:
    rss_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
with open(sys.argv[1], "w", encoding="utf-8") as stamp:
    json.dump({
        "ready": ready,
        "done": done,
        "code": code,
        "cpu_s": cpu,
        "rss_kb": rss_kb,
        "children_cpu_s": kids.ru_utime + kids.ru_stime,
        "children_rss_kb": kids.ru_maxrss,
    }, stamp)
sys.exit(code)
