"""Starts the benchmark's child processes and reports their rusage.

run.py starts this process first, while its own memory is still small.  Linux
carries a process's peak RSS into the children it spawns, so children spawned
by the benchmark process itself (which imports numpy and parses megabytes of
output) would report its peak as theirs; children spawned from here report
their own.

On a small shared machine each CPU slows down for seconds at a time when a
neighbour loads its physical core.  A child that is not ``parallel`` is
therefore pinned to the CPU on which a short fixed loop runs fastest right
now; the probe is not part of its wall time.

Protocol: one JSON request per line on stdin, ``{"argv", "stdout",
"parallel"}``; one JSON reply per line on stdout, ``{"rc", "wall", "cpu",
"maxrss_kb"}``.  The child's stdout goes to the file named in the request, its
stderr is appended to the file named by this script's only argument.
"""

import json
import os
import sys
import time

PROBE_LOOP = 20_000  # a few milliseconds of pure-Python work


def probe_seconds(cpu: int) -> float:
    os.sched_setaffinity(0, {cpu})
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        sum(i * i % 7 for i in range(PROBE_LOOP))
        best = min(best, time.perf_counter() - start)
    return best


def run(argv: list, stdout: str, parallel: bool, stderr: str) -> dict:
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644),
    ]
    cpus = os.sched_getaffinity(0)
    try:
        if not parallel:
            os.sched_setaffinity(0, {min(sorted(cpus), key=probe_seconds)})
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    finally:
        os.sched_setaffinity(0, cpus)
    _, status, usage = os.wait4(pid, 0)
    return {
        "rc": os.waitstatus_to_exitcode(status),
        "wall": time.perf_counter() - start,
        "cpu": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
    }


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["stdout"], request["parallel"], sys.argv[1])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
