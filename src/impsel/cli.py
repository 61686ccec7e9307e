"""Command-line entry point.

One binary, five subcommands:

    impsel run         run the twin-threshold mechanism on a graph file
    impsel plan        plan/validate threshold pairs for a target class
    impsel audit       impartiality / gap / trace audits over a graph class
    impsel partitions  composition table, multiplicities, certificate
    impsel reduce      apply a graph reduction and emit the result

Exit codes: 0 success, 1 an audit found violations (or failed trace checks),
2 usage or input errors, inputs too large to hold in memory included, 141
(128 + SIGPIPE) stdout closed before the output was written, as in
``impsel partitions --n 12 | head -1``; nothing more is printed then.  With
--json every report is a single JSON document, byte for byte what
``json.dumps(report, indent=2)`` gives, written to stdout in blocks while it
is rendered an array element at a time; the witness list of an audit, the
trace of ``run`` and the rows of ``partitions`` are generators made as they
are written, so a report's memory is that of its data, not of its text.
Output is deterministic for deterministic inputs and independent of --jobs.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import chain, groupby, islice
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .audit import (
    AUDIT_CAP,
    Exhaustive,
    Sampled,
    check_impartiality,
    check_trace_invariants,
    measure_gap,
)
from .graphs import CapExceeded, GraphClassSpec, parse_graph, sample_stream
from .mechanisms import MechanismId
from .partitions import (
    COMPOSITION_CAP,
    build_certificate,
    enumerate_compositions,
    fubini,
    lambda_of,
    reduce_add_inneighbors,
    reduce_add_isolated,
)
from .twin_threshold import (
    PlanReport,
    ThresholdPair,
    additive_gap,
    plan_thresholds_general,
    plan_thresholds_k1,
    run_twin_threshold,
    validate_thresholds,
)


#: Writers of the JSON scalars, by exact type: json's C string escaper, the
#: repr of int and the three literals.
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


#: Characters of JSON text collected per stdout write.  The number of writes
#: then does not depend on how stdout is buffered (under PYTHONUNBUFFERED each
#: write is a system call), and the text held at once stays this small.
_WRITE_BLOCK = 1 << 16


def _render(value, indent: str, out: list[str], size: int) -> int:
    """Append ``json.dumps(value, indent=2)`` for a dict with str keys or an
    array (list or iterator), nested at `indent`, to `out` in pieces; return
    the characters then pending in `out`, `size` being those before.  Members
    may be str, int, bool, None or such containers; any other type, subclasses
    of these scalars included, raises ``TypeError``.  At every depth an
    array's elements are rendered one at a time, runs of scalars joined
    ``_WRITE_BLOCK // 8`` at a time, and once ``_WRITE_BLOCK`` characters are
    pending after an element, `out` goes to stdout and is emptied."""
    inner = indent + "  "
    if isinstance(value, dict):  # its pieces are joined, as most of its values are scalars
        sep, comma, parts = "{\n" + inner, ",\n" + inner, []
        for key, item in value.items():
            scalar = _SCALARS.get(type(item))
            if scalar is None:
                out.append("".join(parts) + f"{sep}{encode_basestring_ascii(key)}: ")  # a key that is no str raises
                parts.clear()
                size = _render(item, inner, out, size + len(out[-1]))
            else:
                parts.append(f"{sep}{encode_basestring_ascii(key)}: {scalar(item)}")
            sep = comma
        parts.append("{}" if sep[0] == "{" else f"\n{indent}}}")
        out.append("".join(parts))
        return size + len(out[-1])
    if not isinstance(value, (list, Iterator)):
        raise TypeError(f"cannot write {type(value).__name__} as JSON")
    sep, comma = "[\n" + inner, ",\n" + inner
    for kind, run in groupby(value, type):
        scalar = _SCALARS.get(kind)
        chunks = run if scalar is None else iter(lambda: list(islice(run, _WRITE_BLOCK // 8)), [])
        for item in chunks:  # an element, or a chunk of a run of scalars
            if scalar is None:
                out.append(sep)
                size = _render(item, inner, out, size + len(sep))
            else:
                out.append(sep + comma.join(map(scalar, item)))
                size += len(out[-1])
            sep = comma
            if size >= _WRITE_BLOCK:
                sys.stdout.write("".join(out))
                out.clear()
                size = 0
            if scalar is not None and len(item) < _WRITE_BLOCK // 8:
                break  # a short chunk ends its run; asking again would cost more than a short list
    out.append("[]" if sep[0] == "[" else f"\n{indent}]")
    return size + len(out[-1])


def _write_json(payload: dict) -> None:
    """Write ``json.dumps(payload, indent=2)`` and a newline to stdout while
    it is rendered, in blocks as ``_render`` sends them."""
    out: list[str] = []
    _render(payload, "", out, 0)
    sys.stdout.write("".join(out) + "\n")


def _emit(payload: dict, as_json: bool, lines: Iterable[str]) -> None:
    if as_json:
        _write_json(payload)
    else:
        for line in lines:
            print(line)


def _load_graph(path: str):
    return parse_graph(Path(path).read_text(encoding="utf-8"))


def _outdegree_bound(text: str) -> int | None:
    try:
        return None if text == "unbounded" else int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer or 'unbounded'") from None


def _exact(text: str) -> Fraction:
    """An exact rational; a zero denominator is a bad value like any other
    (argparse makes usage errors of ValueError and TypeError only)."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None


def _default_plan(n: int, k: int | None) -> PlanReport:
    """Plan used when no thresholds are given: the k=1 planner for ``--k 1``,
    else the general planner at kappa=0, c=k (``--k unbounded`` is k = n-1)."""
    if k == 1:
        return plan_thresholds_k1(n)
    bound = n - 1 if k is None else k
    return plan_thresholds_general(n, bound, 0, bound)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_run(args) -> int:
    graph = _load_graph(args.graph)
    selected, trace = run_twin_threshold(graph, ThresholdPair(args.T, args.t))
    selected_indegree = graph.indegrees[selected - 1] if selected else 0
    gap = additive_gap(graph, selected)
    payload = {
        "n": graph.n,
        "T": args.T,
        "t": args.t,
        "selected": [selected] if selected else [],
        "selected_indegree": selected_indegree,
        "max_indegree": graph.max_indegree,
        "gap": gap,
        "trace": ({"i": i, "v": v, "dstar": d} for i, v, d in trace.deletions),
        "final_degrees": iter(trace.final_degrees),
    }

    def lines() -> Iterator[str]:  # made only when written, never under --json
        yield f"n={graph.n} thresholds T={args.T} t={args.t}"
        yield f"selected: {selected} (indegree {selected_indegree})" if selected else "selected: nothing"
        yield f"max indegree {graph.max_indegree}, gap {gap}"
        if args.trace:
            yield "deletions (iteration, vertex, degree):"
            yield from (f"  {i:4d} {v:6d} {d:6d}" for i, v, d in trace.deletions)
            yield "final degrees: " + " ".join(map(str, trace.final_degrees))

    _emit(payload, args.json, lines())
    return 0


def _cmd_plan(args) -> int:
    if args.kappa is not None or args.c is not None:
        if args.kappa is None or args.c is None:
            raise ValueError("--kappa and --c must be given together")
        if args.T is not None or args.t is not None:
            raise ValueError("--kappa/--c plan thresholds and --T/--t validate a pair; give one or the other")
        report = plan_thresholds_general(args.n, args.k, args.kappa, args.c)
    elif args.T is not None or args.t is not None:
        if args.T is None or args.t is None:
            raise ValueError("--T and --t must be given together")
        report = validate_thresholds(args.n, args.k, ThresholdPair(args.T, args.t))
    else:
        report = _default_plan(args.n, args.k)
    payload = {
        "n": report.n,
        "k": report.k,
        "t": report.thresholds.lower,
        "T": report.thresholds.upper,
        "alpha_bound": report.alpha_bound,
        "certified": report.impartial_certified,
        "degenerate": report.degenerate,
        "condition_lhs": str(report.condition_lhs),
        "condition_rhs": report.condition_rhs,
        "note": report.note,
    }
    lines = [
        f"n={report.n} k={report.k}: t={report.thresholds.lower} T={report.thresholds.upper}",
        f"worst-gap bound alpha={report.alpha_bound}",
        f"impartiality condition: {report.condition_lhs} > {report.condition_rhs}"
        f" -> certified={report.impartial_certified}",
    ]
    if report.degenerate:
        lines.append(f"degenerate: {report.note}")
    _emit(payload, args.json, lines)
    return 0


def _audit_mode(args):
    """Mode of an impartiality or gap audit, refusing flags it would ignore:
    --jobs and --cap are settings of exhaustive audits."""
    if args.T is not None or args.t is not None:
        raise ValueError("--T and --t apply to trace audits only")
    if args.exhaustive:
        if args.samples is not None or args.seed is not None:
            raise ValueError("--exhaustive excludes --samples and --seed")
        return Exhaustive(1 if args.jobs is None else args.jobs, AUDIT_CAP if args.cap is None else args.cap)
    if args.samples is None:
        raise ValueError("choose --exhaustive or --samples N")
    if args.seed is None:
        raise ValueError("sampled audits need an explicit --seed")
    if args.jobs is not None or args.cap is not None:
        raise ValueError("--jobs and --cap apply to exhaustive audits only")
    return Sampled(args.seed, args.samples)


def _cmd_audit(args) -> int:
    if args.kind == "trace" and (args.mechanism, args.cap, args.jobs) != (None, None, None):
        raise ValueError("trace audits run the twin-threshold pair; --mechanism, --cap and --jobs do not apply")
    mid = MechanismId.parse("twin:2,1" if args.mechanism is None else args.mechanism)
    spec = GraphClassSpec(args.n, args.k, args.positive_outdegree)
    if args.kind == "impartiality":
        mode = _audit_mode(args)
        violations = check_impartiality(mid, spec, mode)
        payload = {
            "kind": "impartiality",
            "mechanism": mid.text(),
            "class": spec.describe(),
            "mode": mode.describe(),
            "violation_count": len(violations),
            "violations": (
                {
                    "deviator": w.deviator,
                    "selected_a": w.selected_a,
                    "selected_b": w.selected_b,
                    "graph_a": w.text_a,
                    "graph_b": w.text_b,
                }
                for w in violations
            ),
        }
        lines = [
            f"impartiality audit of {mid.text()} on {spec.describe()} ({mode.describe()})",
            f"violations found: {len(violations)}",
        ]
        examples = (  # only the text report runs this: it makes, so checks, every violation and parses 10
            f"  deviator {w.deviator}: selected {w.selected_a} vs {w.selected_b} across"
            f" {w.graph_a.key} / {w.graph_b.key}"
            for i, w in enumerate(violations) if i < 10
        )
        _emit(payload, args.json, chain(lines, examples))
        return 1 if violations else 0
    if args.kind == "gap":
        mode = _audit_mode(args)
        report = measure_gap(mid, spec, mode)
        witness = report.witness.serialize()
        payload = {
            "kind": "gap",
            "mechanism": mid.text(),
            "class": spec.describe(),
            "mode": mode.describe(),
            "worst_gap": report.worst_gap,
            "graphs_checked": report.graphs_checked,
            "witness": witness,
        }
        lines = [
            f"gap audit of {mid.text()} on {spec.describe()} ({mode.describe()})",
            f"worst additive gap {report.worst_gap} over {report.graphs_checked} graphs",
            "witness: " + " / ".join(witness.splitlines()),
        ]
        _emit(payload, args.json, lines)
        return 0
    # trace invariants over sampled graphs
    if args.exhaustive:
        raise ValueError("trace audits are sampled; --exhaustive does not apply")
    if args.samples is None or args.seed is None:
        raise ValueError("trace audits need --samples N and --seed S")
    mode = Sampled(args.seed, args.samples)  # refuses fewer than one trial
    if (args.T is None) != (args.t is None):
        raise ValueError("--T and --t must be given together")
    if args.T is not None:
        pair = ThresholdPair(args.T, args.t)
    else:
        pair = _default_plan(args.n, args.k).thresholds
    failures = []
    for graph in sample_stream(spec, mode.seed, mode.trials):
        failed = [c for c in check_trace_invariants(graph, pair, *run_twin_threshold(graph, pair)) if not c.ok]
        if failed:
            names, detail = [c.name for c in failed], "; ".join(c.detail for c in failed)
            failures.append({"graph": graph.serialize(), "failed": names, "detail": detail})
    payload = {
        "kind": "trace",
        "class": spec.describe(),
        "T": pair.upper,
        "t": pair.lower,
        "runs": mode.trials,
        "failure_count": len(failures),
        "failures": failures,
    }
    lines = [
        f"trace audit on {spec.describe()} with T={pair.upper} t={pair.lower}",
        f"runs: {mode.trials}, failures: {len(failures)}",
    ]
    _emit(payload, args.json, lines)
    return 1 if failures else 0


def _cmd_partitions(args) -> int:
    # (composition, lambda, certificate cells) per row, streamed from the
    # certificate or from the compositions
    if args.certificate:
        cert = build_certificate(args.n, args.cap)
        rows = ((r.composition, r.lam, (r.sign, r.sense, r.multiplier)) for r in cert.rows())
    else:
        rows = ((p, lambda_of(p), ()) for p in enumerate_compositions(args.n, args.cap))
    count, total = 1 << (args.n - 1), fubini(args.n)
    odd = total % 2 == 1
    cells = ("sign", "sense", "multiplier") if args.certificate else ()
    payload = {
        "n": args.n,
        "compositions": count,
        "fubini": total,
        "odd": odd,
        "rows": (
            {"composition": list(p), "r": len(p), "lambda": lam} | dict(zip(cells, extra))
            for p, lam, extra in rows
        ),
    }
    if args.certificate:
        payload["certificate"] = {
            "rhs_total": cert.rhs_total,
            "rhs_alternate": -cert.rhs_total,
            "sign_even_parts": cert.sign_even_parts,
            "odd": cert.rhs_total % 2 != 0,
            "cancellation_ok": cert.cancellation_ok,
        }

    def lines() -> Iterator[str]:  # made only when written, never under --json
        yield f"compositions of {args.n}: {count}, multiplicity sum {total} (odd={odd})"
        if args.certificate:
            yield (f"certificate: rhs_total={cert.rhs_total} (alternate {-cert.rhs_total}),"
                   f" cancellation_ok={cert.cancellation_ok}")
        widths = (5, 13, 11)
        yield f"{'composition':<20} {'r':>3} {'lambda':>10}" + "".join(f" {c:>{w}}" for c, w in zip(cells, widths))
        for p, lam, extra in rows:
            yield f"{str(p):<20} {len(p):>3} {lam:>10}" + "".join(f" {c:>{w}}" for c, w in zip(extra, widths))

    _emit(payload, args.json, lines())
    return 0


def _cmd_reduce(args) -> int:
    graph = _load_graph(args.graph)
    if args.mode == "isolated":
        result = reduce_add_isolated(graph, args.n_target)
    else:
        result = reduce_add_inneighbors(graph, args.n_target)
    text = result.serialize()
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="impsel", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the twin-threshold mechanism on a graph file")
    run.add_argument("--graph", required=True, help="path to a graph file")
    run.add_argument("--T", type=int, required=True, help="upper (selection) threshold")
    run.add_argument("--t", type=int, required=True, help="lower (deletion) threshold")
    run.add_argument("--json", action="store_true")
    run.add_argument("--trace", action="store_true", help="print the deletion trace")
    run.set_defaults(func=_cmd_run)

    plan = sub.add_parser("plan", help="plan or validate threshold pairs")
    plan.add_argument("--n", type=int, required=True)
    plan.add_argument("--k", type=int, default=1, help="outdegree bound (default 1)")
    plan.add_argument("--kappa", type=_exact, help="outdegree growth exponent in [0, 1], exact (e.g. 0.5 or 1/2)")
    plan.add_argument("--c", type=_exact, help="outdegree growth coefficient (k <= c*n^kappa), exact")
    plan.add_argument("--T", type=int, help="validate this upper threshold instead of planning")
    plan.add_argument("--t", type=int, help="validate this lower threshold instead of planning")
    plan.add_argument("--json", action="store_true")
    plan.set_defaults(func=_cmd_plan)

    audit = sub.add_parser("audit", help="impartiality / gap / trace audits")
    audit.add_argument("kind", choices=("impartiality", "gap", "trace"))
    audit.add_argument("--mechanism", help="e.g. never, max-naive, follow:1, twin:4,1 (default twin:2,1)")
    audit.add_argument("--n", type=int, required=True)
    audit.add_argument("--k", type=_outdegree_bound, default=None, help="outdegree bound or 'unbounded'")
    audit.add_argument("--positive-outdegree", action="store_true")
    audit.add_argument("--exhaustive", action="store_true")
    audit.add_argument("--samples", type=int)
    audit.add_argument("--seed", type=int)
    jobs_help = "exhaustive audits: worker processes, one chunk of the class each (at most the usable CPUs; default 1)"
    audit.add_argument("--jobs", type=int, help=jobs_help)
    audit.add_argument("--cap", type=int, help="exhaustive audits: most graphs in the class (default 10^7)")
    audit.add_argument("--T", type=int, help="trace audits: upper threshold (default: planned)")
    audit.add_argument("--t", type=int, help="trace audits: lower threshold (default: planned)")
    audit.add_argument("--json", action="store_true")
    audit.set_defaults(func=_cmd_audit)

    partitions = sub.add_parser("partitions", help="composition table and certificate")
    partitions.add_argument("--n", type=int, required=True)
    partitions.add_argument("--certificate", action="store_true")
    cap_help = "largest n accepted (default %(default)s; bounds time, not memory: --certificate at 21 takes ~18 s)"
    partitions.add_argument("--cap", type=int, default=COMPOSITION_CAP, help=cap_help)
    partitions.add_argument("--json", action="store_true")
    partitions.set_defaults(func=_cmd_partitions)

    reduce = sub.add_parser("reduce", help="apply a padding reduction to a graph file")
    reduce.add_argument("--graph", required=True)
    reduce.add_argument("--mode", choices=("isolated", "inneighbors"), required=True)
    reduce.add_argument("--n-target", type=int, required=True)
    reduce.add_argument("--output", help="write here instead of stdout")
    reduce.set_defaults(func=_cmd_reduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: send what is still buffered, and the flush at
        # exit, to devnull so that no second error is printed
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, CapExceeded, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
