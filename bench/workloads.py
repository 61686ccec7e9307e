"""The benchmark workloads: their CLI commands and the checks on every output.

Each command is checked in three ways:

* its exit code;
* the sha256 of its stdout against ``expected_digests.json``.  Commands that
  take no seeded input are checked on every seed; seeded ones only on
  ``DIGEST_SEED``, the seed the digests were recorded with.  JSON output is
  hashed after dropping a top-level ``stats`` key, so that a stats block can
  be added to ``--json`` reports without breaking the gate;
* property checks that hold for every seed (violation counts, certified pairs,
  gap bounds, trace invariants).

The seed feeds only the ``--seed`` of sampled audits and the instance
generator; the program receives nothing but the generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass, field
from math import comb, isqrt
from pathlib import Path
from typing import Callable

from impsel.twin_threshold import ThresholdPair, plan_thresholds_general, validate_thresholds

DIGEST_SEED = 1
DIGESTS = json.loads((Path(__file__).parent / "expected_digests.json").read_text())

#: Vertex count of the generated single-nomination instance.
INSTANCE_N = 100_000

# Checks receive the stdout bytes and a dict of workload facts they may fill in;
# they return a list of problems (empty when the output is right).
Check = Callable[[bytes, dict], list]


@dataclass(frozen=True)
class Command:
    id: str
    argv: tuple[str, ...]
    check: Check
    exit_code: int = 0
    json: bool = False
    seeded: bool = False
    # True for commands that fork --jobs workers: they get every CPU, and the
    # traced pass runs them as plain processes (their workers would record
    # spans the parent never sees).
    parallel: bool = False


@dataclass
class Workload:
    name: str
    commands: list[Command]
    facts: dict = field(default_factory=dict)


def stdout_digest(out: bytes, as_json: bool) -> str:
    if as_json:
        payload = json.loads(out)
        payload.pop("stats", None)
        out = (json.dumps(payload, indent=2) + "\n").encode()
    return hashlib.sha256(out).hexdigest()


def gate(cmd: Command, seed: int, rc: int, out: bytes, facts: dict) -> list[str]:
    """Every problem with one command's result; empty when it passed."""
    if rc != cmd.exit_code:
        return [f"{cmd.id}: exit code {rc}, expected {cmd.exit_code}"]
    problems = []
    if not cmd.seeded or seed == DIGEST_SEED:
        try:
            digest = stdout_digest(out, cmd.json)
        except ValueError as exc:
            return [f"{cmd.id}: output is not JSON ({exc})"]
        if digest != DIGESTS.get(cmd.id):
            problems.append(f"{cmd.id}: stdout sha256 {digest} does not match the recorded digest")
    try:
        problems.extend(f"{cmd.id}: {p}" for p in cmd.check(out, facts))
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        problems.append(f"{cmd.id}: unreadable output ({exc!r})")
    return problems


def _line_value(out: bytes, pattern: str) -> re.Match:
    match = re.search(pattern, out.decode())
    if match is None:
        raise ValueError(f"no line matching {pattern!r}")
    return match


def _expect(problems: list, ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def _no_violations(certified: bool) -> Check:
    def check(out: bytes, facts: dict) -> list:
        found = int(_line_value(out, r"violations found: (\d+)").group(1))
        problems = []
        _expect(problems, certified, "the audited pair is not certified by the planner")
        _expect(problems, found == 0, f"{found} violations for a certified pair")
        return problems

    return check


# ---------------------------------------------------------------------------
# Four command groups, each with the reason it is in the benchmark.  They run
# as two workloads (bottom of the file): a run has to last close to a minute to
# be steady on a small machine with noisy neighbours, and the run budget pays
# for about two workloads of that length.
# ---------------------------------------------------------------------------

# G_7(1): all 823,543 graphs with 0 violations.  Time goes to the mechanism
# kernels and the deviation-pair scan (about 55/45); there are no witnesses, no
# sampling and almost no output.  This is where a vectorized scan, a numpy
# outcome table and removing the second process pool show.  The --jobs 2 run
# (not above nproc=2) exposes parallel waste through cpu_s.  Seed-independent.


def _g7_commands() -> list[Command]:
    twin = ("--mechanism", "twin:4,1", "--n", "7", "--k", "1", "--exhaustive")
    certified = validate_thresholds(7, 1, ThresholdPair(4, 1)).impartial_certified

    def gap4(out: bytes, facts: dict) -> list:
        m = _line_value(out, r"worst additive gap (\d+) over (\d+) graphs")
        problems = []
        _expect(problems, m.groups() == ("4", "823543"), f"worst gap {m.group(1)} over {m.group(2)} graphs, expected 4 over 823543")
        return problems

    return [
        Command("impartiality_g7_jobs1", ("audit", "impartiality", *twin, "--jobs", "1"), _no_violations(certified)),
        Command(
            "impartiality_g7_jobs2",
            ("audit", "impartiality", *twin, "--jobs", "2"),
            _no_violations(certified),
            parallel=True,
        ),
        Command("gap_g7", ("audit", "gap", *twin), gap4),
    ]


# Witnesses: max-naive on G_6(1) gives 46,656 graphs, 48,430 violations and
# about 10 MB of JSON.  Unranking through graph_at_index, serialize, sorting
# and JSON encoding dominate; the kernel and the scan are small.  Lazy witness construction and
# cached unranking show here, while the G_7(1) commands predict no change.
# Seed-independent.


def _witness_commands() -> list[Command]:
    def count(out: bytes, facts: dict) -> list:
        report = json.loads(out)
        problems = []
        _expect(problems, report["violation_count"] == 48430, f"violation_count {report['violation_count']}, expected 48430")
        _expect(problems, len(report["violations"]) == 48430, f"{len(report['violations'])} witnesses listed, expected 48430")
        return problems

    argv = ("audit", "impartiality", "--mechanism", "max-naive", "--n", "6", "--k", "1", "--exhaustive", "--json")
    return [Command("impartiality_maxnaive_g6", argv, count, exit_code=1, json=True)]


# Sampled audits: Philox sampling, _count_upto unranking (about 88% of the
# trace audit), deviations, DirectedGraph construction, resolve, traced runs
# and trace checks.
# The only commands where the sampling stream and graph-object construction
# are the bulk of the work.


def _sampled_commands(seed: int) -> list[Command]:
    s = str(seed)
    trace_plan = plan_thresholds_general(50, 3, 0.0, 3.0)
    twin_plan = validate_thresholds(20, 2, ThresholdPair(15, 3))

    def trace_ok(out: bytes, facts: dict) -> list:
        runs, failures = map(int, _line_value(out, r"runs: (\d+), failures: (\d+)").groups())
        problems = []
        _expect(problems, trace_plan.impartial_certified, "the planned pair for n=50, k=3 is not certified")
        _expect(problems, runs == 1000, f"{runs} traced runs, expected 1000")
        _expect(problems, failures == 0, f"{failures} trace failures for a certified pair")
        return problems

    def gap_bounded(out: bytes, facts: dict) -> list:
        gap, graphs = map(int, _line_value(out, r"worst additive gap (\d+) over (\d+) graphs").groups())
        problems = []
        _expect(problems, graphs == 2000, f"{graphs} graphs checked, expected 2000")
        _expect(problems, gap <= twin_plan.alpha_bound, f"worst gap {gap} exceeds alpha_bound {twin_plan.alpha_bound}")
        return problems

    twin = ("--mechanism", "twin:15,3", "--n", "20", "--k", "2")
    return [
        Command("trace_n50", ("audit", "trace", "--n", "50", "--k", "3", "--samples", "1000", "--seed", s), trace_ok, seeded=True),
        Command(
            "impartiality_sampled_n20",
            ("audit", "impartiality", *twin, "--samples", "20", "--seed", s),
            _no_violations(twin_plan.impartial_certified),
            seeded=True,
        ),
        Command("gap_sampled_n20", ("audit", "gap", *twin, "--samples", "2000", "--seed", s), gap_bounded, seeded=True),
    ]


# Instance: a generated single-nomination graph on 10^5 vertices.  Parsing,
# the deletion core at large n (a couple of hundred deletions over about 317 degree levels),
# serialization of a large graph and the partitions layer.  No other commands
# touch these at scale.


def single_nomination_instance(n: int, seed: int) -> list[int]:
    """Nominee of every vertex (index v-1, 0 for abstention) of a seeded graph.

    Outdegree is at most 1.  With t = ceil(sqrt n), hubs sit at the highest
    indices and draw t..2t nominations each, uniformly, from the other vertices
    until the voters run out (about n / 1.5t hubs), so the deletion sweep walks
    down many degree levels.  Each hub nominates another random hub, so
    deletions lower the degrees of hubs still waiting; voters left over abstain.
    """
    rng = random.Random(seed)
    t = isqrt(n - 1) + 1
    quotas: list[int] = []
    while True:
        d = rng.randint(t, 2 * t)
        if sum(quotas) + d > n - len(quotas) - 1:
            break
        quotas.append(d)
    first_hub = n - len(quotas) + 1
    voters = list(range(1, first_hub))
    rng.shuffle(voters)
    nominee = [0] * n
    start = 0
    for hub, quota in enumerate(quotas, start=first_hub):
        for u in voters[start : start + quota]:
            nominee[u - 1] = hub
        start += quota
        other = rng.randrange(first_hub, n)
        nominee[hub - 1] = other if other < hub else other + 1
    return nominee


def _fubini(n: int) -> int:
    """Weak orders on n elements by the recurrence a(m) = sum_k C(m,k) a(m-k)."""
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(comb(m, k) * a[m - k] for k in range(1, m + 1)))
    return a[n]


def _instance_commands(seed: int, out_dir: Path, facts: dict) -> list[Command]:
    n = INSTANCE_N
    nominee = single_nomination_instance(n, seed)
    path = out_dir / f"instance-n{n}-seed{seed}.g"
    lines = [f"n {n}"] + [f"e {u} {v}" for u, v in enumerate(nominee, start=1) if v]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    edges = len(lines) - 1
    plan = validate_thresholds(n, 1, ThresholdPair(547, 317))

    def run_ok(out: bytes, facts: dict) -> list:
        report = json.loads(out)
        problems = []
        _expect(problems, (report["n"], report["T"], report["t"]) == (n, 547, 317), "wrong n or thresholds echoed")
        _expect(problems, plan.impartial_certified, "T=547, t=317 is not certified for n=10^5")
        _expect(problems, report["gap"] <= plan.alpha_bound, f"gap {report['gap']} exceeds alpha_bound {plan.alpha_bound}")
        order = [(r["dstar"], r["v"]) for r in report["trace"]]
        _expect(problems, all(a > b for a, b in zip(order, order[1:])), "deletions not in decreasing (degree, vertex) order")
        _expect(problems, all(d >= 317 for d, _ in order), "a vertex was deleted below t")
        # Every deletion removes the deleted vertex's out-edges from the degrees.
        removed = sum(1 for _, v in order if nominee[v - 1])
        _expect(problems, sum(report["final_degrees"]) == edges - removed, "final degrees do not account for the deletions")
        facts["deletions"] = len(order)
        facts["selected"] = report["selected"][0] if report["selected"] else 0
        return problems

    def reduce_ok(out: bytes, facts: dict) -> list:
        text = out.decode()
        problems = []
        _expect(problems, text.startswith("n 120000\n"), "reduced graph does not have 120000 vertices")
        _expect(problems, text.count("\ne ") == edges, "reduced graph lost or gained edges")
        return problems

    def partitions_ok(out: bytes, facts: dict) -> list:
        report = json.loads(out)
        cert = report["certificate"]
        problems = []
        _expect(problems, report["compositions"] == len(report["rows"]) == 2**15, "wrong number of compositions of 16")
        _expect(problems, report["fubini"] == _fubini(16) and report["odd"], f"fubini(16) reported as {report['fubini']}")
        _expect(problems, cert["cancellation_ok"], "certificate does not cancel")
        _expect(problems, cert["rhs_total"] < 0 and cert["rhs_total"] % 2 == 1, "certificate total is not odd and negative")
        return problems

    graph = str(path)
    facts.update(instance_edges=edges, instance_hubs=len(set(nominee) - {0}))
    return [
        Command(
            "run_instance",
            ("run", "--graph", graph, "--T", "547", "--t", "317", "--json", "--trace"),
            run_ok,
            json=True,
            seeded=True,
        ),
        Command(
            "reduce_instance",
            ("reduce", "--graph", graph, "--mode", "isolated", "--n-target", "120000"),
            reduce_ok,
            seeded=True,
        ),
        Command("partitions_n16", ("partitions", "--n", "16", "--certificate", "--json"), partitions_ok, json=True),
    ]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def exhaustive(seed: int, out_dir: Path) -> Workload:
    """Whole-class audits, seed-independent: the kernels, the pair scan and the
    process pool (G_7(1)) next to witness construction and large JSON reports
    (G_6(1)), so that a change to either shows against the other."""
    return Workload("exhaustive", _g7_commands() + _witness_commands())


def seeded(seed: int, out_dir: Path) -> Workload:
    """Everything that takes seeded input (sampled audits, the 10^5-vertex
    instance) plus the partitions table: sampling, deviations, traced runs,
    parsing and the deletion core at scale.  No exhaustive scan runs here."""
    facts: dict = {}
    return Workload("seeded", _sampled_commands(seed) + _instance_commands(seed, out_dir, facts), facts)


WORKLOADS = {w.__name__: w for w in (exhaustive, seeded)}
