"""The benchmark's gates in the test suite: every command of every workload,
built at the digest seed, runs through ``impsel.cli.main`` and must pass the
exit-code, stdout-digest and property checks of ``bench/workloads.py``.  A
change that alters a recorded output fails here before any benchmark run."""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

import impsel.cli

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _load_workloads():
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave bench/ untouched
    try:
        spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look their module up there
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_bench_workload_passes_its_gates(name, tmp_path):
    workload = workloads.WORKLOADS[name](workloads.DIGEST_SEED, tmp_path)
    problems = []
    for cmd in workload.commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = impsel.cli.main(list(cmd.argv))
        problems += workloads.gate(cmd, workloads.DIGEST_SEED, rc, out.getvalue().encode(), workload.facts)
    assert problems == []
