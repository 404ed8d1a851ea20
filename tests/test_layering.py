"""Module boundaries inside the package: no module reaches into another
module's private (underscore-prefixed) names, every name a module exports in
`__all__` exists, and every package function that the benchmark's traced
mode wraps by name still exists."""

import ast
import importlib
import importlib.util
from pathlib import Path

import stackga

PACKAGE_DIR = Path(stackga.__file__).parent


def _imported_private_names(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("stackga"):
            continue  # another package's names are not ours to police
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append(f"{path.name}:{node.lineno} {alias.name}")
    return found


def test_no_private_cross_module_imports():
    modules = sorted(PACKAGE_DIR.rglob("*.py"))
    assert len(modules) > 10
    offenders = [hit for path in modules for hit in _imported_private_names(path)]
    assert offenders == []


def test_detector_flags_private_import(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("from .pipeline import _display_name, run_holdout\n"
                   "from stackga.learners import _KnnLearner\n"
                   "from os import _exit\n")
    hits = _imported_private_names(bad)
    assert [h.split()[-1] for h in hits] == ["_display_name", "_KnnLearner"]


def test_every_exported_name_exists():
    exporting, missing = [], []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        parts = path.relative_to(PACKAGE_DIR.parent).with_suffix("").parts
        name = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        module = importlib.import_module(name)
        if hasattr(module, "__all__"):
            exporting.append(name)
            missing += [f"{name}.{n}" for n in module.__all__ if not hasattr(module, n)]
    assert "stackga.pipeline" in exporting
    assert missing == []


def test_traced_benchmark_targets_resolve():
    """`perfbench/spans.py` wraps these functions by module and name when a
    benchmark runs traced; a name the package no longer has fails here."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = spans._targets()
    assert len(targets) > 10
    missing = [f"{module.__name__}.{attr}" for module, attr, *_ in targets
               if not (module.__name__.startswith("stackga")
                       and callable(getattr(module, attr, None)))]
    assert missing == []
