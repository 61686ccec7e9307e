"""Checks on the package source itself."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "impsel").glob("*.py"))
MODULES = [path for path in SOURCES if path.name != "__init__.py"]


def test_package_sources_are_found():
    assert any(path.name == "audit.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_contracts_raise_instead_of_asserting(path):
    # `python -O` strips assert statements, so a contract written as one
    # silently stops holding
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements at lines {lines}"


@pytest.mark.parametrize(
    "path",
    sorted(path for folder in ("src/impsel", "tests", "demos") for path in (ROOT / folder).glob("*.py")),
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_sources_parse_as_python_3_10(path):
    # pyproject.toml declares requires-python >= 3.10; the parser's grammar
    # check stands in for an interpreter of that version
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


@pytest.fixture(scope="module")
def tracer_hooks():
    """Module file name -> names the bench tracer wraps on that module, loaded
    as tests/test_bench_tracer.py loads it."""
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave bench/ untouched
    try:
        spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
    finally:
        sys.dont_write_bytecode = saved
    hooks: dict[str, set[str]] = {}
    for owner, attr, _, _ in tracer.PATCHES:
        if isinstance(owner, type(sys)):
            hooks.setdefault(owner.__name__.rpartition(".")[2] + ".py", set()).add(attr)
    return hooks


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path, tracer_hooks):
    # a name imported but never read is dead code, unless the bench tracer
    # wraps it on this module; such an import says so in a comment
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text, filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[(alias.asname or alias.name).partition(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(imported) - used - tracer_hooks.get(path.name, set()))
    assert unused == [], f"{path.name}: imported but unused: {unused}"
    lines = text.splitlines()
    for name in sorted(set(imported) - used):
        assert "tracer" in lines[imported[name] - 1], f"{path.name}: {name} is kept for the tracer without a comment"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_second_outset_enumeration(path):
    # GraphClassSpec.outset_at is the package's one enumeration of out-sets;
    # a list of them from itertools would be a second definition of their
    # order, which only the tests' oracle may hold
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "itertools"
                for alias in node.names}
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    found = sorted((imported | read) & {"combinations", "permutations"})
    assert found == [], f"{path.name}: uses itertools {found}"


def test_mechanisms_have_no_nested_functions():
    # each mechanism is two module-level rules that take their parameters
    # first; ``functools.partial`` binds them, so no factory closure is needed
    path = ROOT / "src" / "impsel" / "mechanisms.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    nested = [
        inner.name
        for outer in ast.walk(tree)
        if isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(outer)
        if inner is not outer and isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    assert nested == [], f"mechanisms.py: nested functions {nested}"


#: Every name ``impsel/__init__.py`` imports, sorted.  A public name that
#: appears or vanishes changes this list, so the move shows in the diff.
PUBLIC_API = [
    "AUDIT_CAP", "COMPOSITION_CAP", "CapExceeded", "Certificate", "CertificateRow", "DeletionTrace",
    "DirectedGraph", "Exhaustive", "GapReport", "GraphClassSpec",
    "GraphFormatError", "MechanismId", "PlanReport", "Sampled",
    "ThresholdPair", "Violation", "additive_gap", "build_certificate",
    "check_impartiality", "check_trace_invariants", "composition_of_graph",
    "enumerate_compositions", "fubini", "graph_at_index",
    "graph_of_composition", "lambda_of", "measure_gap", "parse_graph", "plan_thresholds_general",
    "plan_thresholds_k1", "reduce_add_inneighbors", "reduce_add_isolated", "resolve", "run_twin_threshold",
    "sample_stream",
    "validate_thresholds",
]


def _public_names() -> list[str]:
    """Every name ``impsel/__init__.py`` imports."""
    path = ROOT / "src" / "impsel" / "__init__.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    ]


def test_public_api_is_pinned():
    assert sorted(_public_names()) == PUBLIC_API


def test_every_public_name_has_a_package_reader():
    # a public name that no other module of the package reads serves only
    # its callers outside it; such code belongs with them.  Imports are no
    # reads, and neither is anything inside the name's own def or class
    trees = [ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in MODULES]  # alive, so ids stay unique
    reads: dict[str, list[ast.AST]] = {}
    definitions: dict[str, set[int]] = {}
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, (ast.Name, ast.Attribute)):
            reads.setdefault(node.id if isinstance(node, ast.Name) else node.attr, []).append(node)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            definitions.setdefault(node.name, set()).update(map(id, ast.walk(node)))
    unread = [
        name for name in _public_names()
        if all(id(node) in definitions.get(name, set()) for node in reads.get(name, []))
    ]
    assert unread == [], f"public names no other package module reads: {unread}"


def _private_definitions(tree: ast.Module):
    """(name, node) of every private module-level function, class or assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if name.startswith("_") and not name.startswith("__"))


def test_every_private_name_is_read():
    # a private function, class or constant that nothing in the package reads
    # besides its own definition is dead code
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in SOURCES}
    definitions = [(f"{file}:{name}", name, node) for file, tree in trees.items() for name, node in _private_definitions(tree)]
    assert len(definitions) > 60
    reads: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append(node)
    orphans = []
    for label, name, definition in definitions:
        inside = set(map(id, ast.walk(definition)))
        if all(id(node) in inside for node in reads.get(name, [])):
            orphans.append(label)
    assert orphans == [], f"private names read nowhere but in their own definitions: {orphans}"


def test_a_failing_property_test_reports_its_failure(tmp_path):
    # under the repo's pytest config a failing @given test must print its own
    # failure and exit 1, not end in an INTERNALERROR raised by a warning
    # that the failure report itself triggers
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "\n"
        "@given(st.integers(0, 10))\n"
        "def test_fails(x):\n"
        "    assert x < 0, 'deliberate failure'\n"
    )
    argv = [
        sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
        "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_fails.py",
    ]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "AssertionError: deliberate failure" in proc.stdout
    assert "Falsifying example" in proc.stdout and "INTERNALERROR" not in proc.stdout + proc.stderr


def test_oracles_load_outside_pytest(tmp_path):
    # the benchmark's self-check loads tests/oracles.py by file path in a plain
    # interpreter with only src importable (bench/run.py:oracle_self_check);
    # an oracle that imports a test helper or a name the package no longer
    # exports would pass the suite and stop the benchmark with no result
    script = (
        "import importlib.util, sys\n"
        "spec = importlib.util.spec_from_file_location('impsel_test_oracles', sys.argv[1])\n"
        "oracles = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(oracles)\n"
        "from impsel import GraphClassSpec, MechanismId, check_impartiality, resolve\n"
        "mid, spec = MechanismId.parse('max-naive'), GraphClassSpec(4, 1)\n"
        "print(len(oracles.violations_by_definition(resolve(mid), spec)), len(check_impartiality(mid, spec)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [sys.executable, "-B", "-c", script, str(ROOT / "tests" / "oracles.py")]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    found, expected = proc.stdout.split()
    assert found == expected and int(expected) > 0


def test_cli_import_loads_no_process_pool(tmp_path):
    # every command imports impsel.cli, and only an exhaustive audit with
    # --jobs above 1 starts a pool: its modules load when the pool starts
    script = (
        "import sys\n"
        "import impsel.cli\n"
        "print(sorted({name.partition('.')[0] for name in sys.modules} & {'multiprocessing', 'concurrent'}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-B", "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
