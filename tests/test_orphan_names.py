"""Every public module-level name of spincnn is read by the program or by
the benchmark harness under perfbench/. A function, class or constant that
only tests call is a second copy of what the program computes elsewhere,
or dead code; this scan fails on one, unless it is an acceptance
criterion's subject listed below."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "spincnn").glob("*.py"))
HARNESS = sorted((ROOT / "perfbench").glob("*.py"))

# read by tests only, kept as the subject of an acceptance criterion
SUBJECTS = {
    "synapse.encode_weight": "criterion 7: the synapse codec's encoder",
}


def definitions(tree):
    """Public module-level functions, classes and assigned names."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if not n.startswith("_")]


def reads(tree):
    """Every name a file loads, reads as an attribute or imports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def orphans():
    trees = {p: ast.parse(p.read_text()) for p in SOURCES + HARNESS}
    read = set().union(*(reads(t) for t in trees.values()))
    return sorted(f"{p.stem}.{name}" for p in SOURCES
                  for name in definitions(trees[p]) if name not in read)


def test_every_public_name_is_read_by_the_program_or_the_harness():
    unread = [name for name in orphans() if name not in SUBJECTS]
    assert not unread, f"public names nothing but tests read: {unread}"


def test_the_subjects_are_still_orphans():
    # a subject the program starts to read needs no exemption
    assert sorted(SUBJECTS) == [n for n in orphans() if n in SUBJECTS]
