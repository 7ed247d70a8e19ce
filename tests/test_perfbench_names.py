"""The benchmark harness under perfbench/ reads spincnn names that no other
tier-1 test imports; a deletion that breaks the harness (say, its
`--trace 1` micro-timings) fails here."""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _is_spincnn(module):
    return module == "spincnn" or module.startswith("spincnn.")


def spincnn_reads(tree):
    """(module, name) pairs a file reads from spincnn: every name imported
    from a spincnn module, and every attribute read off a name bound to a
    spincnn module (by an import or by importlib.import_module)."""
    modules, reads = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_spincnn(node.module or ""):
            for alias in node.names:
                sub = f"{node.module}.{alias.name}"
                if (node.module == "spincnn"
                        and importlib.util.find_spec(sub) is not None):
                    modules[alias.asname or alias.name] = sub
                else:
                    reads.append((node.module, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if _is_spincnn(alias.name):
                    modules[alias.asname or "spincnn"] = \
                        alias.name if alias.asname else "spincnn"
        elif (isinstance(node, ast.Assign) and len(node.targets) == 1
              and isinstance(node.targets[0], ast.Name)
              and isinstance(node.value, ast.Call)
              and ast.unparse(node.value.func) == "importlib.import_module"
              and isinstance(node.value.args[0], ast.Constant)
              and _is_spincnn(node.value.args[0].value)):
            modules[node.targets[0].id] = node.value.args[0].value
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            reads.append((modules[node.value.id], node.attr))
    return reads


FILES = sorted(PERFBENCH.glob("*.py"))


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_perfbench_reads_only_existing_spincnn_names(path):
    missing = [f"{module}.{name}"
               for module, name in spincnn_reads(ast.parse(path.read_text()))
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"{path.name} reads names spincnn lacks: {missing}"


def test_the_scan_sees_the_harness_entry_points():
    reads = set()
    for path in FILES:
        reads.update(spincnn_reads(ast.parse(path.read_text())))
    assert {("spincnn.cli", "main"), ("spincnn.cmos", "integrate"),
            ("spincnn.cmos", "cmos_noise_filter_templates"),
            ("spincnn.network", "net_currents"),
            ("spincnn.core", "TemplateSet")} <= reads
