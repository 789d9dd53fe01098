"""Every import in src/qclone is either used or pinned by the benchmark tracer.

`__init__` re-exports exactly the names in `__all__`. In every other module,
an import that nothing else in the module uses must carry `noqa: F401` and
name the `bench/tracer.py` TARGETS entry that wraps it. A deletion that
leaves a dead import then fails here, and the tracer-only imports stay an
exact list of what the tracer still pins.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qclone"
TRACER = ROOT / "bench" / "tracer.py"


def _assigned(tree, name):
    """The value node of the module-level assignment to `name`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node.value
    raise AssertionError(f"no module-level assignment to {name}")


def _tracer_targets():
    """(module, attribute) pairs of bench/tracer.py's TARGETS, read from its
    source without importing it."""
    targets = _assigned(ast.parse(TRACER.read_text()), "TARGETS")
    return {(entry.elts[0].value, entry.elts[1].value) for entry in targets.elts}


def _imports(tree):
    """(bound name, line) of every import in a module, __future__ aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], alias.lineno


def test_init_imports_exactly_all():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = ast.literal_eval(_assigned(tree, "__all__"))
    assert len(set(exported)) == len(exported)
    assert sorted(name for name, _ in _imports(tree)) == sorted(exported)


def test_unused_imports_are_the_tracer_pinned_ones():
    targets = _tracer_targets()
    pinned = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module, source = path.stem, path.read_text()
        tree = ast.parse(source)
        lines = source.splitlines()
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for name, lineno in _imports(tree):
            line = lines[lineno - 1]
            if name in used:
                assert "noqa: F401" not in line, f"{module}.{name} is used but marked unused"
                continue
            assert "noqa: F401" in line, f"{module}.{name} is imported and never used"
            assert f"bench/tracer.py wraps {module}.{name}" in line, line
            assert (module, name) in targets, f"bench/tracer.py does not wrap {module}.{name}"
            pinned.append(f"{module}.{name}")
    assert pinned, "no tracer-pinned import found; the walk is broken"
