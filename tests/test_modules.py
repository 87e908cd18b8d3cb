"""Static checks on the package source, and on what the benchmark's tracer
and recipes reach into."""
import ast
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

import clinqc
from clinqc import swar, trend

SOURCES = sorted(Path(clinqc.__file__).parent.glob("*.py"))
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def private_uses_across_modules(tree: ast.Module) -> list[str]:
    """``module._name`` on an imported clinqc module, and ``from .module
    import _name``."""
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "clinqc"):
            if node.module in (None, "clinqc"):
                modules.update(alias.asname or alias.name for alias in node.names)
            else:
                found += [f"{node.lineno}: from .{node.module} import {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    found += [f"{node.lineno}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr.startswith("_")
              and isinstance(node.value, ast.Name) and node.value.id in modules]
    return found


def test_no_private_names_across_modules():
    assert len(SOURCES) > 1
    found = [f"{path.name}:{use}" for path in SOURCES
             for use in private_uses_across_modules(ast.parse(path.read_text()))]
    assert not found, "private names used across modules:\n" + "\n".join(found)


def unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports and never reads (``__future__`` aside)."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update({(a.asname or a.name.split(".")[0]): node.lineno
                             for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({(a.asname or a.name): node.lineno for a in node.names})
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    # __init__.py imports to re-export
    found = [f"{path.name}:{use}" for path in SOURCES if path.name != "__init__.py"
             for use in unused_imports(ast.parse(path.read_text()))]
    assert not found, "unused imports in src/clinqc:\n" + "\n".join(found)
    assert unused_imports(ast.parse("import os\nfrom .series import A, B\nB()")) == [
        "1: os", "2: A"]


def test_no_assert_statements():
    # assert vanishes under python -O, so it cannot guard a reachable path
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found, "assert statements in src/clinqc:\n" + "\n".join(found)


def load_perfbench(name: str, monkeypatch):
    """Import ``perfbench/<name>.py`` for the length of one test."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_finds_every_traced_name(monkeypatch):
    # the tracer getattr()s every name it wraps on entry and puts them back
    # on exit, so a renamed or deleted public function fails here
    tracing = load_perfbench("tracing", monkeypatch)
    fit = swar.fit
    with tracing.Tracer().installed():
        assert swar.fit is not fit
    assert swar.fit is fit
    # the tracer reads trace_out from args[3] or the keywords; keyword-only
    # means it is always among the keywords
    trace_out = inspect.signature(trend.l1_trend_filter).parameters["trace_out"]
    assert trace_out.kind is inspect.Parameter.KEYWORD_ONLY
    assert isinstance(swar.SwArFit.occupied, property)


def test_benchmark_recipes_run_at_tiny_size(monkeypatch, tmp_path):
    # the recipes and their checks call the library outside the tracer
    # (FoldMetrics.ba, the synth truth's indicators, rescale_to_counts), so
    # run each workload once, as the benchmark does, at its smallest size
    workloads = load_perfbench("workloads", monkeypatch)
    for name, workload in workloads.WORKLOADS.items():
        rec = workload.make(np.random.default_rng(0), 0, tmp_path, True)
        workload.run(rec, tmp_path / name, True)
        assert workload.check(rec, tmp_path / name) >= workloads.BA_FLOOR[name], name
