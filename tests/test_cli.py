import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import impsel.cli
from impsel import COMPOSITION_CAP, DeletionTrace, GraphClassSpec, ThresholdPair
from impsel.cli import _write_json, build_parser, main
from impsel.graphs import sample_stream

SRC = Path(__file__).resolve().parent.parent / "src"

STAR5 = "n 5\ne 2 1\ne 3 1\ne 4 1\ne 5 1\n"


@pytest.fixture
def star5(tmp_path):
    path = tmp_path / "star5.g"
    path.write_text(STAR5)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---- run ----


def test_run_json_contract(capsys, star5):
    code, out, _ = run_cli(capsys, "run", "--graph", star5, "--T", "3", "--t", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 5
    assert payload["selected"] == [1]
    assert payload["selected_indegree"] == 4
    assert payload["max_indegree"] == 4
    assert payload["gap"] == 0
    assert payload["trace"] == [{"i": 0, "v": 1, "dstar": 4}]
    assert payload["final_degrees"] == [4, 0, 0, 0, 0]
    assert set(payload) == {
        "n", "T", "t", "selected", "selected_indegree", "max_indegree", "gap", "trace", "final_degrees",
    }


def test_run_output_is_byte_identical(capsys, star5):
    _, first, _ = run_cli(capsys, "run", "--graph", star5, "--T", "3", "--t", "2", "--json")
    _, second, _ = run_cli(capsys, "run", "--graph", star5, "--T", "3", "--t", "2", "--json")
    assert first == second


def test_run_human_output_and_trace_flag(capsys, star5):
    code, out, _ = run_cli(capsys, "run", "--graph", star5, "--T", "3", "--t", "2", "--trace")
    assert code == 0
    assert "selected: 1" in out and "deletions" in out


# stdout sha256 of `run`: on a seeded G_2000(1) graph at T=5, t=2 (424
# deletions, vertex 1553 selected), as the raw out-tuple kernels wrote it,
# and on a 4-vertex graph at T=2, t=1 where 1 and 2 nominate each other and
# are both deleted (2 deletions, nothing selected), as recorded before
# selections became plain vertex ids
RUN_GRAPHS = {
    "g2000": (lambda: next(sample_stream(GraphClassSpec(2000, 1), 1, 1)).serialize(), "5", "2", 424, [1553]),
    "pair": (lambda: "n 4\ne 1 2\ne 2 1\ne 3 1\ne 4 2\n", "2", "1", 2, []),
}
RUN_REPORTS = [
    pytest.param("g2000", ("--json", "--trace"), "b2d705ec51b3f90c241821bec445ea900d2f666f1ff15b0850719740305921ee",
                 id="json-trace"),
    pytest.param("g2000", ("--trace",), "ae997111fb7cbfb861a87d2653730d540846e9fe33c7ac2cf709aaa05fd1eaa2",
                 id="trace"),
    pytest.param("pair", ("--json",), "8f1895db978743bad8b3c0f6ac0b60d870b9dcb9f1319214d72eed13c48cbe41",
                 id="nothing-json"),
    pytest.param("pair", ("--json", "--trace"), "8f1895db978743bad8b3c0f6ac0b60d870b9dcb9f1319214d72eed13c48cbe41",
                 id="nothing-json-trace"),
    pytest.param("pair", ("--trace",), "6f85c2dadc26a22e5609c76efe83ba29c6044b17d32dfb533e9659cc033891c4",
                 id="nothing-trace"),
]


@pytest.mark.parametrize("graph, flags, digest", RUN_REPORTS)
def test_run_reports_are_byte_identical(capsys, tmp_path, graph, flags, digest):
    text, upper, lower, deletions, selected = RUN_GRAPHS[graph]
    path = tmp_path / f"{graph}.g"
    path.write_text(text())
    code, out, _ = run_cli(capsys, "run", "--graph", str(path), "--T", upper, "--t", lower, *flags)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest
    if "--json" in flags:
        payload = json.loads(out)
        assert len(payload["trace"]) == deletions and payload["selected"] == selected


def test_run_rejects_bad_thresholds(capsys, star5):
    code, _, err = run_cli(capsys, "run", "--graph", star5, "--T", "5", "--t", "2")
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, "run", "--graph", star5, "--T", "1", "--t", "2")
    assert code == 2


def test_run_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "run", "--graph", str(tmp_path / "nope.g"), "--T", "2", "--t", "1")
    assert code == 2 and "error:" in err


def test_closed_stdout_exits_141_quietly(tmp_path):
    # the n=14 table (about 320 kB) outgrows the pipe buffer, so the writer
    # is still printing when the reader goes away
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    argv = [sys.executable, "-m", "impsel.cli", "partitions", "--n", "14"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline().startswith(b"compositions of 14:")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert err == b""
    missing = [sys.executable, "-m", "impsel.cli", "run", "--graph", str(tmp_path / "nope.g"), "--T", "2", "--t", "1"]
    proc = subprocess.run(missing, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stderr.startswith("error:")


def test_closed_stdout_mid_json_report_exits_141_quietly():
    # --json reports are written while they are encoded, so the reader goes
    # away in the middle of the document (the n=14 report is about 1.4 MB)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    argv = [sys.executable, "-m", "impsel.cli", "partitions", "--n", "14", "--json"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert err == b""


class Recorder:
    """A stand-in stdout that keeps every write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def written(monkeypatch, payload) -> list[str]:
    recorder = Recorder()
    monkeypatch.setattr(sys, "stdout", recorder)
    _write_json(payload)
    monkeypatch.undo()
    return recorder.writes


# payload makers: the writer and json.dumps each get a fresh payload, the
# latter with every generator turned into a list
WRITER_CASES = {
    "nested": lambda: {"a": {"b": [1, [2, {"c": [[]]}], {}], "d": {"e": None}}, "f": [{"g": [True]}]},
    "empty": lambda: {"list": [], "dict": {}, "generator": (x for x in ())},
    "no-keys": lambda: {},
    "strings": lambda: {"s": ["line\nbreak", 'quote "', "back\\slash", "caf\u00e9 \u2603 \U0001f600", ""]},
    "ints": lambda: {"big": [2**64 + 1, -(2**70), 0], "n": 2**64},
    "literals": lambda: {"t": True, "f": False, "none": None, "in-list": [True, False, None]},
    "generator": lambda: {"rows": ({"i": i, "pair": [i, str(i)]} for i in range(5)), "after": 1},
}


def _as_lists(value):
    if isinstance(value, dict):
        return {k: _as_lists(v) for k, v in value.items()}
    if isinstance(value, list) or hasattr(value, "__next__"):
        return [_as_lists(v) for v in value]
    return value


@pytest.mark.parametrize("make", WRITER_CASES.values(), ids=WRITER_CASES.keys())
def test_json_writer_matches_json_dumps(monkeypatch, make):
    assert "".join(written(monkeypatch, make())) == json.dumps(_as_lists(make()), indent=2) + "\n"


def test_json_writer_streams_generators_in_blocks(monkeypatch):
    # 200 rows of about 1 kB: several writes of at most one block plus one
    # row, and the last rows are made after the first writes went out
    recorder, made_after = Recorder(), []

    def rows():
        for i in range(200):
            made_after.append(len(recorder.writes))
            yield {"i": i, "text": "x" * 1000}

    monkeypatch.setattr(sys, "stdout", recorder)
    _write_json({"rows": rows(), "count": 200})
    monkeypatch.undo()
    expect = json.dumps({"rows": list(rows()), "count": 200}, indent=2) + "\n"
    assert "".join(recorder.writes) == expect
    assert len(recorder.writes) > 2 and max(map(len, recorder.writes)) < impsel.cli._WRITE_BLOCK + 1100
    assert made_after[-1] >= len(recorder.writes) - 1


# arrays below the top level, and scalar runs longer than one joined chunk
_RUN = impsel.cli._WRITE_BLOCK // 8 + 1
NESTED_CASES = {
    "long-run-depth-1": lambda: {"ints": iter(range(_RUN)), "list": list(range(-_RUN, 0))},
    "long-run-depth-2": lambda: {"rows": [iter(range(_RUN)), {"ints": list(range(_RUN))}], "after": 1},
    "alternating-depth-2": lambda: {
        "rows": [[1, 2, {"a": [3]}, "s", [], None, True, {"b": iter([4, 5])}, 6], {"c": [{}, 7, [8, [9]], "t"]}]
    },
    "empty-iterator-depth-2": lambda: {"rows": [iter(()), {"a": iter(())}], "after": iter(())},
}


@pytest.mark.parametrize("make", NESTED_CASES.values(), ids=NESTED_CASES.keys())
def test_json_writer_matches_json_dumps_below_the_top_level(monkeypatch, make):
    assert "".join(written(monkeypatch, make())) == json.dumps(_as_lists(make()), indent=2) + "\n"


def test_json_writer_streams_generators_below_the_top_level(monkeypatch):
    # the generator sits in a dict inside a top-level list element: its rows
    # still go out in blocks, and the last rows are made after the first writes
    recorder, made_after = Recorder(), []

    def rows():
        for i in range(200):
            made_after.append(len(recorder.writes))
            yield {"i": i, "text": "x" * 1000}

    monkeypatch.setattr(sys, "stdout", recorder)
    _write_json({"outer": [{"rows": rows(), "count": 200}]})
    monkeypatch.undo()
    expect = json.dumps({"outer": [{"rows": list(rows()), "count": 200}]}, indent=2) + "\n"
    assert "".join(recorder.writes) == expect
    assert len(recorder.writes) > 2 and max(map(len, recorder.writes)) < impsel.cli._WRITE_BLOCK + 1100
    assert made_after[-1] >= len(recorder.writes) - 1


@pytest.mark.parametrize("value", [1.5, Fraction(1, 2), np.int64(3)], ids=["float", "Fraction", "int64"])
def test_json_writer_refuses_other_types(monkeypatch, value):
    for payload in ({"x": value}, {"rows": [value]}, {"rows": [{"x": [value]}]}):
        with pytest.raises(TypeError):
            written(monkeypatch, payload)


JSON_COMMANDS = {
    "run-trace": ("run", "--graph", "{star5}", "--T", "3", "--t", "2", "--trace"),
    "plan": ("plan", "--n", "12", "--k", "3"),
    "impartiality": ("audit", "impartiality", "--mechanism", "max-naive", "--n", "4", "--k", "1", "--exhaustive"),
    "impartiality-sampled": ("audit", "impartiality", "--mechanism", "max-naive", "--n", "5", "--k", "2",
                             "--samples", "3", "--seed", "1"),
    "gap": ("audit", "gap", "--mechanism", "majority", "--n", "4", "--k", "1", "--exhaustive"),
    "trace": ("audit", "trace", "--n", "8", "--k", "2", "--samples", "5", "--seed", "1"),
    "partitions": ("partitions", "--n", "5"),
    "partitions-certificate": ("partitions", "--n", "5", "--certificate"),
}


@pytest.mark.parametrize("argv", JSON_COMMANDS.values(), ids=JSON_COMMANDS.keys())
def test_json_reports_are_what_json_dumps_writes(capsys, star5, argv):
    code, out, _ = run_cli(capsys, *(a.format(star5=star5) for a in argv), "--json")
    assert code in (0, 1) and out == json.dumps(json.loads(out), indent=2) + "\n"


def test_run_bad_graph_file_reports_line(capsys, tmp_path):
    path = tmp_path / "bad.g"
    path.write_text("n 3\ne 1 1\n")
    code, _, err = run_cli(capsys, "run", "--graph", str(path), "--T", "2", "--t", "1")
    assert code == 2 and "line 2" in err


def test_inputs_too_large_to_hold_exit_2(capsys, tmp_path):
    # 10**17 vertices are past any 64-bit address space: the allocation is
    # refused at once, so nothing is allocated
    huge, small = tmp_path / "huge.g", tmp_path / "small.g"
    huge.write_text(f"n {10**17}\ne 1 2\n")
    small.write_text("n 2\ne 1 2\n")
    for argv in (("run", "--graph", str(huge), "--T", "2", "--t", "1"),
                 ("reduce", "--graph", str(small), "--mode", "isolated", "--n-target", str(10**17))):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error: "), argv


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--T", "3", "--t", "2"])  # missing --graph
    assert exc.value.code == 2


def test_bad_outdegree_bound_names_the_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["audit", "gap", "--n", "5", "--k", "x", "--samples", "3", "--seed", "1"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "argument --k: expected an integer or 'unbounded'" in err and "_outdegree_bound" not in err


# ---- plan ----


def test_plan_k1(capsys):
    code, out, _ = run_cli(capsys, "plan", "--n", "100", "--k", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["t"], payload["T"], payload["alpha_bound"]) == (10, 16, 24)
    assert payload["certified"] is True and payload["degenerate"] is False


def test_plan_validate_mode(capsys):
    code, out, _ = run_cli(capsys, "plan", "--n", "100", "--k", "1", "--T", "10", "--t", "10", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["certified"] is False
    assert payload["condition_lhs"] == "20" and payload["condition_rhs"] == 102


def test_plan_general(capsys):
    code, out, _ = run_cli(capsys, "plan", "--n", "100", "--k", "1", "--kappa", "0", "--c", "1", "--json")
    payload = json.loads(out)
    assert code == 0 and (payload["T"], payload["t"]) == (24, 5) and payload["certified"]
    code, out, _ = run_cli(capsys, "plan", "--n", "16", "--k", "1", "--kappa", "1", "--c", "1", "--json")
    assert code == 0 and json.loads(out)["degenerate"] is True
    code, out, _ = run_cli(capsys, "plan", "--n", "256", "--k", "16", "--kappa", "1/2", "--c", "1", "--json")
    assert code == 0 and (json.loads(out)["T"], json.loads(out)["t"]) == (159, 32)


def test_plan_default_is_exact_at_perfect_squares(capsys):
    # t = floor(sqrt(3 * 12) / 2) = 3; a floored float root gave t=2, alpha=27
    code, out, _ = run_cli(capsys, "plan", "--n", "12", "--k", "3", "--json")
    payload = json.loads(out)
    assert code == 0 and (payload["t"], payload["alpha_bound"]) == (3, 21)


def test_plan_rejects_partial_flags(capsys):
    cases = [
        (("--kappa", "1"), "together"),
        (("--k", "5", "--kappa", "0", "--c", "5", "--T", "16", "--t", "10"), "one or the other"),
    ]
    for extra, message in cases:
        code, out, err = run_cli(capsys, "plan", "--n", "16", *extra)
        assert code == 2 and out == "" and message in err


def test_plan_refuses_an_outdegree_bound_below_one(capsys):
    # the default plan passes k as the general planner's c, so the bound is
    # checked first and the error names it
    for extra in ((), ("--kappa", "0", "--c", "1")):
        for k in ("0", "-2"):
            code, out, err = run_cli(capsys, "plan", "--n", "5", "--k", k, *extra)
            assert code == 2 and out == ""
            assert err == f"error: outdegree bound {k} outside 1..4\n"


def test_plan_refuses_a_zero_denominator(capsys):
    # Fraction("1/0") raises ZeroDivisionError, which argparse would pass on as a traceback and exit 1
    for kappa, c in (("1/0", "1"), ("1", "1/0")):
        with pytest.raises(SystemExit) as exc:
            main(["plan", "--n", "10", "--k", "1", "--kappa", kappa, "--c", c])
        flag = "--kappa" if kappa == "1/0" else "--c"
        assert exc.value.code == 2
        assert f"argument {flag}: invalid Fraction value: '1/0'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "upper, lower, error",
    [(5, 1, "upper threshold 5 exceeds n-1=2"), (1, 2, "need 1 <= t <= T, got T=1, t=2")],
)
def test_an_invalid_pair_gets_one_error_line(capsys, tmp_path, upper, lower, error):
    # every command taking a (T, t) pair, as flags or as twin:T,t, checks it by ThresholdPair
    path = tmp_path / "g3.g"
    path.write_text("n 3\ne 1 2\n")
    pair, twin = ("--T", str(upper), "--t", str(lower)), f"twin:{upper},{lower}"
    commands = [
        ("run", "--graph", str(path), *pair),
        ("plan", "--n", "3", *pair),
        ("audit", "trace", "--n", "3", "--samples", "2", "--seed", "1", *pair),
        ("audit", "impartiality", "--n", "3", "--exhaustive", "--mechanism", twin),
        ("audit", "gap", "--n", "3", "--exhaustive", "--mechanism", twin),
    ]
    for argv in commands:
        assert run_cli(capsys, *argv) == (2, "", f"error: {error}\n"), argv


# ---- audit ----


def test_audit_impartiality_clean_exit_0(capsys):
    code, out, _ = run_cli(
        capsys, "audit", "impartiality", "--mechanism", "twin:3,1", "--n", "4", "--k", "1",
        "--exhaustive", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["violation_count"] == 0 and payload["class"] == "G_4(1)"


def test_audit_impartiality_certified_pair_full_class(capsys):
    code, out, _ = run_cli(
        capsys, "audit", "impartiality", "--mechanism", "twin:4,1", "--n", "5", "--k", "1",
        "--exhaustive", "--json",
    )
    assert code == 0 and json.loads(out)["violation_count"] == 0


def test_audit_impartiality_violations_exit_1(capsys):
    code, out, _ = run_cli(
        capsys, "audit", "impartiality", "--mechanism", "max-naive", "--n", "4", "--k", "1",
        "--exhaustive", "--json",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["violation_count"] > 0
    first = payload["violations"][0]
    assert first["graph_a"].startswith("n 4\n") and first["selected_a"] != first["selected_b"]


def test_exhaustive_impartiality_report_is_byte_identical(capsys):
    # stdout sha256 of the max-naive G_5(1) report (2,834 witnesses) as it was
    # written when the whole document was encoded before the first write
    code, out, _ = run_cli(
        capsys, "audit", "impartiality", "--mechanism", "max-naive", "--n", "5", "--k", "1",
        "--exhaustive", "--json",
    )
    assert code == 1 and json.loads(out)["violation_count"] == 2834
    assert hashlib.sha256(out.encode()).hexdigest() == "b6966497a968be86e86146bb736474a9d26c38dd88334bfcc16240fcf7d5bfa3"


def test_exhaustive_impartiality_text_report_is_byte_identical(capsys):
    # the text form prints the first 10 witness pairs by graph key, parsed
    # from the witness texts
    code, out, _ = run_cli(
        capsys, "audit", "impartiality", "--mechanism", "max-naive", "--n", "5", "--k", "1", "--exhaustive",
    )
    assert code == 1 and "violations found: 2834" in out
    assert hashlib.sha256(out.encode()).hexdigest() == "a954ab9ddd8dd7c8b170d99b0e25aef029ac6f3dc9d35baa606cea38ad61db3d"


@pytest.mark.slow
def test_exhaustive_impartiality_report_on_g6_is_byte_identical(capsys):
    # the max-naive G_6(1) report (48,430 witnesses) the benchmark's digest gates
    code, out, _ = run_cli(
        capsys, "audit", "impartiality", "--mechanism", "max-naive", "--n", "6", "--k", "1",
        "--exhaustive", "--json",
    )
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == "f4f6cb3911328d9c7d5d14a557d1a2056b1e78131016b7aa298c23bd77a98528"


def test_audit_rejects_jobs_below_one(capsys):
    for kind in ("impartiality", "gap"):
        for mode in (("--exhaustive",), ("--samples", "2", "--seed", "1")):
            for jobs in ("0", "-3"):
                argv = ("audit", kind, "--mechanism", "never", "--n", "3", *mode, "--jobs", jobs)
                code, out, err = run_cli(capsys, *argv)
                assert code == 2 and out == ""
                assert err.startswith("error:") and "jobs" in err


def test_audit_output_independent_of_jobs(capsys):
    args = ["audit", "impartiality", "--mechanism", "max-naive", "--n", "4", "--k", "1", "--exhaustive", "--json"]
    _, one, _ = run_cli(capsys, *args, "--jobs", "1")
    _, two, _ = run_cli(capsys, *args, "--jobs", "2")
    assert one == two


def test_audit_gap(capsys):
    code, out, _ = run_cli(
        capsys, "audit", "gap", "--mechanism", "follow:1", "--n", "4", "--k", "unbounded",
        "--positive-outdegree", "--exhaustive", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["worst_gap"] == 2 and payload["graphs_checked"] == 2401


def test_audit_sampled_requires_seed(capsys):
    code, _, err = run_cli(
        capsys, "audit", "impartiality", "--mechanism", "never", "--n", "4", "--k", "1", "--samples", "10",
    )
    assert code == 2 and "--seed" in err
    code, _, err = run_cli(capsys, "audit", "impartiality", "--mechanism", "never", "--n", "4", "--k", "1")
    assert code == 2


def test_audit_seed_outside_the_philox_key_range_exits_2(capsys):
    for kind in ("impartiality", "gap", "trace"):
        argv = ("audit", kind, "--n", "5", "--k", "1", "--samples", "2", "--seed")
        for seed in (-1, 2**128):
            code, out, err = run_cli(capsys, *argv, str(seed))
            assert code == 2 and out == ""
            assert err == f"error: seed {seed} outside 0..2**128-1\n"
        for seed in (0, 2**128 - 1):
            code, out, err = run_cli(capsys, *argv, str(seed))
            assert code in (0, 1) and out and err == ""


def test_audit_trace(capsys):
    code, out, _ = run_cli(
        capsys, "audit", "trace", "--n", "12", "--k", "1", "--samples", "50", "--seed", "3", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["runs"] == 50 and payload["failure_count"] == 0


def test_audit_trace_reports_every_failed_run(capsys, monkeypatch):
    # every run's trace has vertex 1's final degree raised by one, which
    # fails remaining_degrees on any graph
    run = impsel.cli.run_twin_threshold

    def raised(graph, thresholds):
        selected, trace = run(graph, thresholds)
        return selected, DeletionTrace(trace.deletions, (trace.final_degrees[0] + 1, *trace.final_degrees[1:]))

    monkeypatch.setattr(impsel.cli, "run_twin_threshold", raised)
    argv = ("audit", "trace", "--n", "12", "--k", "1", "--samples", "50", "--seed", "3")
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["runs"] == 50 and payload["failure_count"] == 50 and len(payload["failures"]) == 50
    first = next(sample_stream(GraphClassSpec(12, 1), 3, 50))
    pair = ThresholdPair(payload["T"], payload["t"])
    _, trace = run(first, pair)
    final = trace.final_degrees[0]
    problems = [f"vertex 1: final degree {final + 1} != recomputed {final}"]
    if all(v != 1 for _, v, _ in trace.deletions) and final + 1 >= pair.lower:
        problems.append(f"undeleted vertex 1 ended at degree {final + 1} >= t={pair.lower}")
    assert payload["failures"][0] == {"graph": first.serialize(), "failed": ["remaining_degrees"], "detail": "; ".join(problems)}
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    assert out.splitlines()[1] == "runs: 50, failures: 50"


def test_audit_refuses_fewer_than_one_sample(capsys):
    for kind in ("impartiality", "gap", "trace"):
        for samples in ("0", "-3"):
            code, out, err = run_cli(capsys, "audit", kind, "--n", "5", "--k", "1", "--samples", samples, "--seed", "1")
            assert code == 2 and out == ""
            assert err == f"error: need at least one trial, got {samples}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("impartiality", "--mechanism", "never", "--exhaustive", "--samples", "3", "--seed", "1"),
         "--exhaustive excludes"),
        (("impartiality", "--exhaustive", "--samples", "3"), "--exhaustive excludes"),
        (("gap", "--exhaustive", "--seed", "1"), "--exhaustive excludes"),
        (("trace", "--exhaustive", "--samples", "2", "--seed", "1"), "--exhaustive does not apply"),
        (("impartiality", "--exhaustive", "--T", "2", "--t", "1"), "trace audits only"),
        (("gap", "--samples", "3", "--seed", "1", "--t", "1"), "trace audits only"),
        (("gap", "--exhaustive", "--T", "2"), "trace audits only"),
        (("trace", "--samples", "2", "--seed", "1", "--cap", "5", "--mechanism", "never", "--jobs", "3"),
         "--mechanism, --cap and --jobs do not apply"),
        (("trace", "--samples", "2", "--seed", "1", "--mechanism", "twin:2,1"), "do not apply"),
        (("trace", "--samples", "2", "--seed", "1", "--cap", "5"), "do not apply"),
        (("trace", "--samples", "2", "--seed", "1", "--jobs", "1"), "do not apply"),
        (("gap", "--mechanism", "never", "--samples", "2", "--seed", "1", "--jobs", "3"),
         "--jobs and --cap apply to exhaustive audits only"),
        (("impartiality", "--mechanism", "never", "--samples", "2", "--seed", "1", "--jobs", "1"),
         "--jobs and --cap apply to exhaustive audits only"),
        (("gap", "--mechanism", "never", "--samples", "2", "--seed", "1", "--cap", "1"),
         "--jobs and --cap apply to exhaustive audits only"),
        (("impartiality", "--mechanism", "never", "--samples", "2", "--seed", "1", "--cap", "16"),
         "--jobs and --cap apply to exhaustive audits only"),
    ],
    ids=lambda x: " ".join(x) if isinstance(x, tuple) else None,
)
def test_audit_refuses_flags_its_mode_would_ignore(capsys, argv, message):
    code, out, err = run_cli(capsys, "audit", *argv, "--n", "4", "--k", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


def test_audit_unknown_mechanism(capsys):
    code, _, err = run_cli(
        capsys, "audit", "impartiality", "--mechanism", "nope", "--n", "4", "--k", "1", "--exhaustive",
    )
    assert code == 2 and "unknown mechanism" in err


def test_audit_cap_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "audit", "impartiality", "--mechanism", "never", "--n", "5", "--k", "unbounded",
        "--exhaustive", "--cap", "100",
    )
    assert code == 2 and "cap" in err
    # sampled audits have no cap to set: their deviation lines are bounded by
    # the fixed audit cap (tests/test_audit.py)
    code, out, err = run_cli(
        capsys, "audit", "impartiality", "--mechanism", "never", "--n", "4", "--k", "1",
        "--samples", "1", "--seed", "1", "--cap", "15",
    )
    assert code == 2 and out == "" and "cap" in err


# stdout sha256 of sampled reports as the per-graph sampled loops wrote them
SAMPLED_REPORTS = [
    (
        ("impartiality", "--mechanism", "max-naive", "--n", "5", "--k", "1", "--samples", "30", "--seed", "2"),
        1, "violation_count", 43, "031d5030aa1b6ff36ffb5929509e58e173bcc960aad7a946658e627aea344dbb",
    ),
    (
        ("impartiality", "--mechanism", "naive-sim:2", "--n", "9", "--k", "3", "--positive-outdegree",
         "--samples", "5", "--seed", "4"),
        1, "violation_count", 25, "e3f0cf518733d8e55b251d0f2c56f3da76cf1fa647737ac27f41f7edc6c08557",
    ),
    (
        ("gap", "--mechanism", "majority", "--n", "6", "--k", "2", "--samples", "50", "--seed", "3"),
        0, "worst_gap", 3, "19e21a849cc6c9857118f2b2a899277656af7def6d9c6e10ece9d9019f1b8e1c",
    ),
]


@pytest.mark.parametrize(
    "argv, code, key, value, digest", SAMPLED_REPORTS, ids=lambda x: x[0] if isinstance(x, tuple) else None
)
def test_sampled_reports_are_byte_identical(capsys, argv, code, key, value, digest):
    got, out, _ = run_cli(capsys, "audit", *argv, "--json")
    assert got == code and json.loads(out)[key] == value
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ---- partitions ----


def test_partitions_with_certificate(capsys):
    code, out, _ = run_cli(capsys, "partitions", "--n", "3", "--certificate", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["fubini"] == 13 and payload["odd"] is True
    assert payload["certificate"]["rhs_total"] == -1
    assert payload["certificate"]["cancellation_ok"] is True
    assert [row["multiplier"] for row in payload["rows"]] == [-6, 3, 3, -1]


def test_partitions_table_only(capsys):
    code, out, _ = run_cli(capsys, "partitions", "--n", "4")
    assert code == 0 and "multiplicity sum 75" in out


def test_partitions_cap_defaults_to_the_composition_cap(capsys):
    assert build_parser().parse_args(["partitions", "--n", "3"]).cap == COMPOSITION_CAP
    code, out, err = run_cli(capsys, "partitions", "--n", str(COMPOSITION_CAP + 1))
    assert code == 2 and out == "" and f"cap {COMPOSITION_CAP}" in err


# stdout sha256 of the certificate tables as written when the table and the
# certificate each enumerated the compositions, and at n=16 (the size the
# benchmark's seeded workload runs) as written when the certificate held its rows
PARTITIONS_REPORTS = [
    (("--n", "10", "--certificate", "--json"), "6148fa754cea1f66e4bc69afd30d49487ec21b88ce2d7996d749c4e5d8b693d3"),
    (("--n", "10", "--certificate"), "6531b31e878a0a1a22f55888f5b98277102425be9528b7920e29894d98159b79"),
    (("--n", "16", "--certificate", "--json"), "1bb0fa1e9f329c7d32c0fa879808baec56b8be79110b95a2a8580cb0f79f9dfb"),
    (("--n", "16", "--certificate"), "b0672fa560b615e53eec455b85025801ee21156b914f3a55f6ff78a73ddffe45"),
]


@pytest.mark.parametrize("argv, digest", PARTITIONS_REPORTS)
def test_partitions_reports_are_byte_identical(capsys, argv, digest):
    code, out, _ = run_cli(capsys, "partitions", *argv)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


# ---- reduce ----


def test_reduce_isolated(capsys, tmp_path):
    src = tmp_path / "g.g"
    src.write_text("n 2\ne 1 2\n")
    dst = tmp_path / "out.g"
    code = main(["reduce", "--graph", str(src), "--mode", "isolated", "--n-target", "4", "--output", str(dst)])
    assert code == 0
    assert dst.read_text() == "n 4\ne 1 2\n"


def test_reduce_inneighbors_stdout(capsys, tmp_path):
    src = tmp_path / "g.g"
    src.write_text("n 2\ne 1 2\n")
    code, out, _ = run_cli(capsys, "reduce", "--graph", str(src), "--mode", "inneighbors", "--n-target", "4")
    assert code == 0
    assert out == "n 4\ne 1 2\ne 2 3\ne 3 1\ne 3 2\ne 4 1\ne 4 2\n"


def test_reduce_rejects_non_composition_input(capsys, tmp_path):
    src = tmp_path / "g.g"
    src.write_text("n 2\ne 2 1\n")
    code, _, err = run_cli(capsys, "reduce", "--graph", str(src), "--mode", "inneighbors", "--n-target", "4")
    assert code == 2 and "composition" in err
