"""Benchmark of the impsel command line on fixed workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; paths are resolved from this file.  The package runs from
``src/`` as ``python -m impsel.cli`` with ``PYTHONPATH=src``; nothing is
installed.  Generated inputs, captured stderr, result records and span files go
to ``.bench_out/`` at the repository root.

Untraced pass (always).  The workload's commands run as child processes, one
after another, and the whole sequence repeats until ``--seconds`` have passed.  Every output is checked
(see ``workloads.py``).  Each iteration gives:

* ``wall_s``: from launching the first command until the last one exits,
  less the CPU probes between commands (see ``launcher.py``);
* ``cpu_s``: user plus system CPU of those processes and their ``--jobs``
  workers, from each child's ``wait4`` rusage;
* ``peak_rss_mb``: the highest ``ru_maxrss`` of any of those processes.

The reported value is the median over iterations.  ``setup_s`` is the median
wall time of launching ``python -c "import impsel.cli"`` (interpreter, numpy and
package import), which every command pays.  After one warm-up launch it is
measured in batches before the first iteration and after each one, so that its
samples are spread over the run like the iterations are.

Traced pass (``--trace 1``).  After the untraced pass, the same commands run
once more in this process through ``impsel.cli.main(argv)`` with the wrappers of
``tracer.py`` installed, except the ``--jobs 2`` command, which runs as an
untraced child: its forked workers would record spans this process never
sees.  The per-layer metrics of BENCHMARK.json come from this pass, summed
over the workload's commands (``.bench_out/spans-*.jsonl`` keeps them per
command); a metric of a layer or command the workload does not run reads 0.  ``cmd.<id>.wall_s``
and ``proc.jobs2_speedup`` come from the untraced pass, and
``trace.overhead_s`` is the traced pass's wall time minus the untraced median
(in-process commands skip interpreter start-up, so it can read low).

The last line of stdout is the result object; ``attempted`` counts every
command run plus the oracle self-check, ``failed`` those with a wrong exit
code, digest or property, so failed/attempted is the fail rate.  The exit code
is nonzero without a result when the package or the test oracles are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.dont_write_bytecode = True  # the benchmark writes nothing next to its sources or tests/

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_BATCH = 3


@dataclass
class Proc:
    rc: int
    out: bytes
    wall: float
    cpu: float
    rss_mb: float


class Launcher:
    """Runs children through ``launcher.py`` (see there for why)."""

    def __init__(self, env: dict):
        script = Path(__file__).with_name("launcher.py")
        self._stdout = OUT_DIR / "stdout.bin"
        self._proc = subprocess.Popen(
            [sys.executable, "-S", "-B", str(script), str(OUT_DIR / "stderr.txt")],
            cwd=ROOT,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, argv: list[str], parallel: bool = False) -> Proc:
        """Run one child to completion; single-process children are pinned to
        the quietest CPU, ``parallel`` ones get every CPU."""
        request = {"argv": argv, "stdout": str(self._stdout), "parallel": parallel}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process exited")
        reply = json.loads(line)
        return Proc(reply["rc"], self._stdout.read_bytes(), reply["wall"], reply["cpu"], reply["maxrss_kb"] / 1024)

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait()


def cli(argv) -> list[str]:
    return [sys.executable, "-m", "impsel.cli", *argv]


def setup_walls(launcher: Launcher, count: int) -> list[float]:
    walls = []
    for _ in range(count):
        proc = launcher.run([sys.executable, "-c", "import impsel.cli"])
        if proc.rc != 0:
            sys.exit(f"error: impsel.cli does not import (see {OUT_DIR / 'stderr.txt'})")
        walls.append(proc.wall)
    return walls


def oracle_self_check(launcher: Launcher) -> list[str]:
    """max-naive on G_4(1): the CLI's violation count must equal the count of
    tests/oracles.violations_by_definition, which compares mechanism runs on
    graph objects straight from the definition."""
    proc = launcher.run(cli(["audit", "impartiality", "--mechanism", "max-naive", "--n", "4", "--k", "1", "--exhaustive", "--json"]))
    module_spec = importlib.util.spec_from_file_location("impsel_test_oracles", ROOT / "tests" / "oracles.py")
    oracles = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(oracles)
    from impsel import GraphClassSpec, MechanismId, resolve

    expected = len(oracles.violations_by_definition(resolve(MechanismId.parse("max-naive")), GraphClassSpec(4, 1)))
    if proc.rc != 1:
        return [f"oracle self-check: exit code {proc.rc}, expected 1"]
    found = json.loads(proc.out)["violation_count"]
    return [] if found == expected else [f"oracle self-check: CLI found {found} violations on G_4(1), oracle {expected}"]


def untraced_pass(workload, launcher: Launcher) -> tuple[float, dict[str, Proc]]:
    """Run the commands back to back; the wall time is the sum of theirs."""
    procs = {cmd.id: launcher.run(cli(cmd.argv), cmd.parallel) for cmd in workload.commands}
    return sum(p.wall for p in procs.values()), procs


def traced_pass(workload, launcher: Launcher):
    """Run the commands once in-process with the wrappers installed; returns
    (wall seconds, {command id: (exit code, stdout)}, tracer)."""
    import impsel.cli

    from tracer import Tracer, installed

    tracer = Tracer()
    results = {}
    start = time.perf_counter()
    with installed(tracer):
        for cmd in workload.commands:
            if cmd.parallel:
                proc = launcher.run(cli(cmd.argv), parallel=True)
                results[cmd.id] = (proc.rc, proc.out)
                continue
            tracer.command = cmd.id
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = impsel.cli.main(list(cmd.argv))
            out = buf.getvalue().encode()
            tracer.counts["cli.stdout_bytes"] += len(out)
            results[cmd.id] = (rc, out)
    return time.perf_counter() - start, results, tracer


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_values(tracer, cmd_walls: dict[str, float], traced_wall: float, untraced_wall: float) -> dict[str, float]:
    counts, self_s = tracer.counts, tracer.self_s
    values = dict(counts)
    values.update((f"{name}.self_s", seconds) for name, seconds in self_s.items())
    values["graphs.sample_stream.graphs"] = counts["graphs.sample_stream.items"]
    values["graphs.deviations.graphs"] = counts["graphs.deviations.items"]
    values["audit.pairs_per_s"] = _ratio(counts["audit.pairs_examined"], self_s["audit.check_impartiality"])
    values["audit.graphs_built_per_violation"] = _ratio(
        counts["graphs.DirectedGraph.built"], counts["audit.check_impartiality.violations"]
    )
    values.update((f"cmd.{cid}.wall_s", wall) for cid, wall in cmd_walls.items())
    if "impartiality_g7_jobs2" in cmd_walls:
        values["proc.jobs2_speedup"] = cmd_walls["impartiality_g7_jobs1"] / cmd_walls["impartiality_g7_jobs2"]
    values["trace.overhead_s"] = traced_wall - untraced_wall
    return values


def environment(iterations: int, setup_launches: int) -> dict:
    import numpy

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu_model = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        commit = git.stdout.strip() if git.returncode == 0 else "unknown"
    except OSError:
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": cpu_model,
        "commit": commit,
        "repeats": iterations,
        "setup_launches": setup_launches,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    for needed in (ROOT / "src" / "impsel" / "cli.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            sys.exit(f"error: {needed} is missing; run the benchmark from a checkout of the repository")

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "stderr.txt").write_bytes(b"")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    with Launcher(env) as launcher:  # before numpy and impsel are imported here
        return measure(args, spec, launcher)


def measure(args, spec: dict, launcher: Launcher) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, gate

    workload = WORKLOADS[args.workload](args.seed, OUT_DIR)  # input generation, outside every metric
    setup_walls(launcher, 1)  # warm-up: fills __pycache__ and the file cache
    setups = setup_walls(launcher, SETUP_BATCH)
    problems = oracle_self_check(launcher)
    attempted, failed = 1, int(bool(problems))

    def check(cmd, rc: int, out: bytes) -> None:
        nonlocal attempted, failed
        found = gate(cmd, args.seed, rc, out, workload.facts)
        attempted += 1
        failed += bool(found)
        problems.extend(found)

    iterations = []
    start = time.perf_counter()
    while not iterations or time.perf_counter() - start < args.seconds:
        wall, procs = untraced_pass(workload, launcher)
        for cmd in workload.commands:
            check(cmd, procs[cmd.id].rc, procs[cmd.id].out)
        iterations.append((wall, procs))
        setups += setup_walls(launcher, SETUP_BATCH)

    walls = [wall for wall, _ in iterations]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(len(iterations), len(setups)),
        "setup_walls": setups,
        "facts": workload.facts,
        "iterations": [
            {"wall_s": wall, **{cid: {"wall_s": p.wall, "cpu_s": p.cpu, "rss_mb": p.rss_mb} for cid, p in procs.items()}}
            for wall, procs in iterations
        ],
    }
    if args.trace:
        traced_wall, results, tracer = traced_pass(workload, launcher)
        for cmd in workload.commands:
            check(cmd, *results[cmd.id])
        cmd_walls = {cmd.id: statistics.median(p[cmd.id].wall for _, p in iterations) for cmd in workload.commands}
        values = layer_values(tracer, cmd_walls, traced_wall, statistics.median(walls))
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl", {"workload": args.workload, "seed": args.seed})
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(sum(p.cpu for p in procs.values()) for _, procs in iterations),
            "peak_rss_mb": statistics.median(max(p.rss_mb for p in procs.values()) for _, procs in iterations),
            "setup_s": statistics.median(setups),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    record["problems"] = problems
    record["result"] = result
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2))
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({"env": record["env"], "facts": workload.facts}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
