"""The reference implementations in tests/oracles.py must not use the package,
or a check against them would partly compare the package with itself."""

import ast
from pathlib import Path

ORACLES = Path(__file__).parent / "oracles.py"


def test_oracles_import_nothing_from_the_package():
    tree = ast.parse(ORACLES.read_text(), filename=str(ORACLES))
    imports = [(alias.name, 0) for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    imports += [(node.module or "", node.level) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    assert imports, "no imports found; the walk is broken"
    for module, level in imports:
        assert level == 0, f"relative import of {module!r}"
        assert module.split(".")[0] not in ("qclone", "src"), module


def test_oracles_do_not_reach_the_source_tree():
    # a path insert or an import by string would get past the walk above
    source = ORACLES.read_text()
    assert "sys.path" not in source
    assert "qclone" not in source
