"""Package hygiene: no module of `qmip` imports a name it never uses, and
every parameter with a default has a call that sets it."""

import ast
from pathlib import Path

import pytest

import qmip

PACKAGE = Path(qmip.__file__).parent
ROOT = Path(__file__).resolve().parent.parent

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


# --- defaulted parameters -----------------------------------------------------

# "module.function(parameter)" defaults that no call sets, kept on purpose,
# each with the reason
ALLOWED_DEFAULTS: dict[str, str] = {}


def _defaulted(tree: ast.Module) -> list[tuple[str, str, int | None]]:
    """(callee name, parameter, position or None if keyword-only) of every
    parameter with a default: of functions and methods by their name, of
    `__init__` and dataclass fields by the class name."""
    out = []

    def visit(body, cls=None):
        for node in body:
            if isinstance(node, ast.ClassDef):
                if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                    fields = [s for s in node.body if isinstance(s, ast.AnnAssign)
                              and "ClassVar" not in ast.unparse(s.annotation)]
                    out.extend((node.name, f.target.id, i)
                               for i, f in enumerate(fields) if f.value is not None)
                visit(node.body, node)
            elif isinstance(node, ast.FunctionDef):
                args = node.args
                pos = args.posonlyargs + args.args
                # a call passes no argument for self or cls
                skip = int(cls is not None and not any(
                    ast.unparse(d) == "staticmethod" for d in node.decorator_list))
                name = cls.name if cls is not None and node.name == "__init__" else node.name
                first = len(pos) - len(args.defaults)
                out.extend((name, a.arg, i - skip)
                           for i, a in enumerate(pos[first:], first))
                out.extend((name, a.arg, None) for a, d in
                           zip(args.kwonlyargs, args.kw_defaults) if d is not None)
                visit(node.body)

    visit(tree.body)
    return out


def _calls(trees: list[ast.Module]) -> dict[str, list[tuple[int, set[str]]]]:
    """Per callee name, the (positional count, keywords) of every call; *args
    counts as every position and **kwargs as every keyword ("**"). The
    `PASSES` entries count as called with `check` and `config`, as the CLI
    and `run_pipeline` call them through the table."""
    every = 1 << 30
    out: dict[str, list[tuple[int, set[str]]]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = getattr(f, "id", None) or getattr(f, "attr", None)
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                out.setdefault(name, []).append(
                    (every if starred else len(node.args),
                     {k.arg or "**" for k in node.keywords}))
            elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                  and any(getattr(t, "id", None) == "PASSES" for t in node.targets)):
                for fn in node.value.values:
                    out.setdefault(fn.id, []).append((0, {"check", "config"}))
    return out


def _unset_defaults(package: Path, callers: list[Path]) -> list[str]:
    calls = _calls([ast.parse(p.read_text(), filename=str(p)) for p in callers])
    unset = []
    for path in sorted(package.glob("*.py")):
        for name, param, pos in _defaulted(ast.parse(path.read_text())):
            if not any(param in kws or "**" in kws or (pos is not None and n > pos)
                       for n, kws in calls.get(name, [])):
                unset.append(f"{path.stem}.{name}({param})")
    return unset


def test_every_default_has_a_caller_that_sets_it():
    callers = [p for d in ("src", "tests", "demos", "bench")
               for p in sorted((ROOT / d).rglob("*.py"))]
    assert [u for u in _unset_defaults(PACKAGE, callers)
            if u not in ALLOWED_DEFAULTS] == []


def test_unset_default_is_reported(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "mod.py").write_text(
        "from dataclasses import dataclass\n"
        "def f(a, b=1, *, c=2):\n    return a\n"
        "class K:\n    def __init__(self, d=3):\n        pass\n"
        "    def g(self, e=4):\n        pass\n"
        "@dataclass\nclass D:\n    u: int\n    v: int = 5\n    w: int = 6\n")
    use = tmp_path / "use.py"
    use.write_text("f(0, 1)\nK(3).g()\nD(0, w=1)\n")
    assert _unset_defaults(pkg, [use]) == ["mod.f(c)", "mod.g(e)", "mod.D(v)"]
    use.write_text("f(*a)\nK(**kw).g(e=0)\nD(0, 1)\n")
    assert _unset_defaults(pkg, [use]) == ["mod.f(c)", "mod.D(w)"]
