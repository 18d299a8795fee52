"""Every public function, class and method of the package has a caller.

A public name defined at the top level of `src/distmot/*.py`, or as a
method of a top-level class, must be referenced somewhere in `src/`,
`scripts/` or `perfbench/` outside its own definition. A reference is a
name, an attribute, or a string equal to the name (perfbench's tracer
names the functions it patches by string); an import alone is not one.
API that only the tests call belongs in the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "distmot"
CALLERS = (ROOT / "src", ROOT / "scripts", ROOT / "perfbench")

# The deliberate boundary API, which nothing in the repository calls.
ALLOWED = {
    "density_from_json": "wire boundary: decodes and checks a density that arrives as JSON text",
    "main": "console entry point: `distmot = distmot.cli:main` in pyproject.toml",
}

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(node, DEFS):
                continue
            yield path, node
            if isinstance(node, ast.ClassDef):
                yield from ((path, item) for item in node.body if isinstance(item, DEFS))


def references():
    refs: dict[str, list[tuple[Path, int]]] = {}
    for base in CALLERS:
        for path in sorted(base.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    name = node.value
                else:
                    continue
                refs.setdefault(name, []).append((path, node.lineno))
    return refs


def test_every_public_name_has_a_caller():
    refs = references()
    unused = []
    for path, node in public_definitions():
        if node.name.startswith("_") or node.name in ALLOWED:
            continue
        outside = [
            (p, line) for p, line in refs.get(node.name, [])
            if p != path or not node.lineno <= line <= node.end_lineno
        ]
        if not outside:
            unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    assert not unused, "public API that nothing outside the tests uses:\n" + "\n".join(unused)


def test_allowlist_names_exist():
    names = {node.name for _, node in public_definitions()}
    assert set(ALLOWED) <= names
