"""Package hygiene: no module of `qmip` imports a name it never uses."""

import ast
from pathlib import Path

import pytest

import qmip

PACKAGE = Path(qmip.__file__).parent

# (module, name) imported on purpose without a use in the module
ALLOWED = {
    # bench/layers.py looks up `qmip.model.apply_gate` to trace gate
    # applications made through the model module
    ("model", "apply_gate"),
}


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} imports {name!r} and never uses it"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used and (path.stem, name) not in ALLOWED]


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")
                                          if p.name != "__init__.py"))
def test_module_uses_every_import(module):
    assert _unused_imports(PACKAGE / f"{module}.py") == []


def test_unused_import_is_reported(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("from os import path, sep\nimport numpy as np\n"
                    "def f(x: np.ndarray):\n    return sep\n")
    assert _unused_imports(path) == ["sample.py:1 imports 'path' and never uses it"]
