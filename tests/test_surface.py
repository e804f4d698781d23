"""Every top-level function, class and module-level assignment in
src/singerlab has a reader.

A name counts as referenced when some module loads it (as a bare name or
as an attribute) or lists it in __all__: a public name from src/,
scripts/ or perfbench/, a private (underscore) name from src/ only.
Imports and the definition itself do not count, so a helper that only the
tests call, or that a merge leaves without a caller, fails here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "singerlab"

# Kept without a caller in the program, with the reason.
ALLOWED: dict[str, str] = {
    "discrete_log": "perfbench's tracer and runner wrap ffield.discrete_log by name (ROADMAP item 9)",
}


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _referenced(*dirs) -> set[str]:
    names = set()
    for _, tree in _trees(*dirs):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                names.update(ast.literal_eval(node.value))
    return names


def _defined_names(node) -> list[str]:
    """Names a top-level statement defines: a function, a class, or the
    plain names a module-level assignment binds, __dunder__ names aside."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
    names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def _definitions(private: bool):
    for path, tree in _trees("src/singerlab"):
        for node in tree.body:
            for name in _defined_names(node):
                if name.startswith("_") == private:
                    yield f"{path.stem}.{name}", name


def test_every_public_definition_is_referenced():
    used = _referenced("src", "scripts", "perfbench")
    unused = sorted(q for q, name in _definitions(private=False) if name not in used and name not in ALLOWED)
    assert unused == []


def test_every_private_definition_is_referenced_from_src():
    used = _referenced("src")
    assert sorted(q for q, name in _definitions(private=True) if name not in used) == []


def test_allowlist_is_not_stale():
    defined = {name for _, name in _definitions(private=False)}
    assert set(ALLOWED) <= defined
    assert not set(ALLOWED) & _referenced("src", "scripts", "perfbench")
