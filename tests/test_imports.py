"""Every import in src/qclone is either used or pinned by the benchmark tracer.

`__init__` exports exactly the names in `__all__`, each on first use from the
module that defines it, and imports nothing else. In every other module,
an import that nothing else in the module uses must carry `noqa: F401` and
name the `bench/tracer.py` TARGETS entry that wraps it. A deletion that
leaves a dead import then fails here, and the tracer-only imports stay an
exact list of what the tracer still pins. A second guard keeps the number
rules in `qcore` and `gc` in `__main__`; others keep the unitarity check
and the apparatus inner products at construction.
"""

import ast
import sys
from pathlib import Path

import pytest

import qclone

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


def _defined(module):
    """Names that a package module binds at module level by a definition or an
    assignment, not by an import."""
    names = set()
    for node in ast.parse((PACKAGE / f"{module}.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def test_init_imports_exactly_all():
    """`__init__` binds no package name at import: its lazy table, whose keys
    are `__all__`, names the module that defines each, and the name resolves
    to that module's object on first use. Any other name is an
    AttributeError, and the submodules import by name."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert [name for name, _ in _imports(tree)] == ["import_module"]
    table = ast.literal_eval(_assigned(tree, "_EXPORTS"))
    assert sorted(table) == sorted(set(qclone.__all__)) == qclone.__all__
    assert len(qclone.__all__) == 24
    for name, module in table.items():
        assert name in _defined(module), f"qclone.{module} does not define {name}"
        assert getattr(qclone, name) is getattr(sys.modules[f"qclone.{module}"], name)
    namespace = {}
    exec("from qclone import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == qclone.__all__
    for name in ("nonexistent", "json", "np", "fidelity"):
        with pytest.raises(AttributeError, match=name):
            getattr(qclone, name)
    # a submodule still imports by name, as bench/run.py's import_qclone does
    from qclone import b92, cli, machines, optimizer, qcore, rng, textio
    imported = (b92, cli, machines, optimizer, qcore, rng, textio)
    names = ("b92", "cli", "machines", "optimizer", "qcore", "rng", "textio")
    for name, module in zip(names, imported):
        assert module is sys.modules[f"qclone.{name}"]


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


PER_STATE = ("DensityMatrix", "to_density", "partial_trace", "fidelity", "clone")


def _per_state_uses(tree):
    """(name, line) of each reference to a per-state name, outside
    machines.clone's own body: a bare name the module binds by an import or a
    definition (a parameter such as channel_spec's `fidelity` is not one),
    or an attribute of a package module."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    bound = {name for name, _ in _imports(tree)} | {
        node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    allowed = {id(node) for fn in tree.body if isinstance(fn, ast.FunctionDef)
               and fn.name == "clone" for node in ast.walk(fn)}
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, ast.Name) and node.id in bound & set(PER_STATE):
            yield node.id, node.lineno
        elif (isinstance(node, ast.Attribute) and node.attr in PER_STATE
              and isinstance(node.value, ast.Name) and node.value.id in modules):
            yield node.attr, node.lineno


def test_per_state_layer_stays_unexported_and_unused():
    """The per-state layer (qcore's DensityMatrix, to_density, partial_trace
    and fidelity, and machines.clone) is not exported, and no module but
    qcore uses it, apart from the imports the tracer pins and clone's own
    body. Deleting it then touches nothing else in the package."""
    assert not set(qclone.__all__) & set(PER_STATE), "the package exports a per-state name"
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ("__init__.py", "qcore.py"):
            continue
        source = path.read_text()
        lines = source.splitlines()
        for name, lineno in _imports(ast.parse(source)):
            if name in PER_STATE and not (path.stem, name) == ("machines", "DensityMatrix"):
                assert "noqa: F401" in lines[lineno - 1], f"{path.stem} imports {name} for use"
        uses = list(_per_state_uses(ast.parse(source)))
        assert not uses, f"{path.stem} uses the per-state layer at {uses}"


def test_number_rules_live_in_qcore():
    """qcore's _numbers, _real and _integer are the package's only rules for
    what a number is: only qcore (input rules) and textio (output formatting)
    import `numbers`, no other module calls `isfinite`, and no other module
    defines a rule of the same name. Only `__main__`, the process entry, imports `gc`."""
    rules = {"_numbers", "_real", "_integer"}
    importers = {"numbers": set(), "gc": set()}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        module = path.stem
        for name in {name for name, _ in _imports(tree)} & set(importers):
            importers[name].add(module)
        if module == "qcore":
            continue
        calls = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and node.id == "isfinite"
                 or isinstance(node, ast.Attribute) and node.attr == "isfinite"]
        assert not calls, f"{module} checks finiteness itself at lines {calls}"
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert not defined & rules, f"{module} defines {defined & rules}"
    assert importers == {"numbers": {"qcore", "textio"}, "gc": {"__main__"}}, importers


def _scoped_nodes(node, scope=""):
    """(qualified name of the innermost enclosing function or class, node)
    for every node under `node`; "" at module level."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}".lstrip(".")
        yield inner, child
        yield from _scoped_nodes(child, inner)


def test_unitarity_is_checked_at_construction_only():
    """CloningSpec.__post_init__ is the one unitarity check: in src/qclone,
    validate_unitarity is called only there and by the `validate` command's
    report (cli._cmd_validate), and UNITARITY_TOL is compared only in
    machines."""
    calls, compares = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for scope, node in _scoped_nodes(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and "validate_unitarity" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                calls.append(f"{path.stem}.{scope}")
            if isinstance(node, ast.Compare) and "UNITARITY_TOL" in ast.unparse(node):
                compares.append(path.stem)
    assert sorted(calls) == ["cli._cmd_validate", "machines.CloningSpec.__post_init__"], calls
    assert compares == ["machines"], compares


def test_apparatus_inner_products_are_taken_at_construction_only():
    """CloningSpec.__post_init__ takes the Gram matrix of the apparatus
    vectors once, as spec.gram, and everything else reads that: no module
    names vdot, and q0, q1, y0 and y1 are read as attributes only there."""
    vectors = {"q0", "q1", "y0", "y1"}
    vdots, reads, at_construction = [], [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        for scope, node in _scoped_nodes(ast.parse(path.read_text())):
            if "vdot" in (getattr(node, "id", None), getattr(node, "attr", None)):
                vdots.append(f"{path.stem}.{scope}")
            if isinstance(node, ast.Attribute) and node.attr in vectors:
                if f"{path.stem}.{scope}" == "machines.CloningSpec.__post_init__":
                    at_construction.add(node.attr)
                else:
                    reads.append(f"{path.stem}.{scope}.{node.attr}")
    assert not vdots, f"vdot named at {vdots}"
    assert not reads, f"apparatus vectors read at {reads}"
    assert at_construction == vectors, "the Gram matrix is not taken from all four vectors"
