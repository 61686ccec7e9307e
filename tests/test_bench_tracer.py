"""The bench tracer replaces functions at the names impsel's modules bind
(``impsel.audit.deviations``, ``impsel.cli.main``, ...).  Installing it here
makes a refactor that drops or renames one of those names fail a test."""

import importlib.util
import sys
from pathlib import Path

import impsel.cli

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_bench_tracer_installs_and_restores(monkeypatch, capsys):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    originals = {(owner, attr): owner.__dict__[attr] for owner, attr, _, _ in tracer.PATCHES}
    with tracer.installed(tracer.Tracer()) as traced:
        assert all(owner.__dict__[attr] is not fn for (owner, attr), fn in originals.items())
        assert impsel.cli.main(["audit", "impartiality", "--mechanism", "never", "--n", "3", "--k", "1", "--exhaustive"]) == 0
    assert all(owner.__dict__[attr] is fn for (owner, attr), fn in originals.items())
    assert traced.counts["audit.check_impartiality.calls"] == 1
    # exhaustive audits run the batch kernel on blocks of graphs, never a per-graph kernel
    assert traced.counts["mechanisms.kernel.calls"] == 0
    assert "violations found: 0" in capsys.readouterr().out
