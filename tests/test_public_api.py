"""Every public function, class and method of the package has a caller.

A public name defined at the top level of `src/distmot/*.py`, or as a
method of a top-level class, must be referenced somewhere in `src/`,
`scripts/` or `perfbench/` outside its own definition. A reference is a
name, an attribute, or a string equal to the name (perfbench's tracer
names the functions it patches by string); an import alone is not one.
API that only the tests call belongs in the tests.

Likewise every defaulted parameter of a public function or method must be
passed, by keyword or by position, by some call in those directories that
names the function; an option only tests set belongs in the tests. And it
must be left out by some such call: a default that every caller overrides
only serves the tests, and the parameter should be required.
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

FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFS = FUNCS + (ast.ClassDef,)


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


# Defaulted parameters that no call in the repository passes, with the reason
# each default stays.
ALLOWED_DEFAULTS = {
    "main(argv)": "console entry point: argparse reads sys.argv; tests pass argv to drive the CLI",
}

# Defaulted parameters that every call in the repository passes, with the
# reason each default stays.
ALWAYS_PASSED = {
    "with_overrides(trials)": "None keeps the scenario's value; the CLI forwards it from an unset --trials",
}


def defaulted_parameters():
    """(path, function node, parameter name, positional index or None).

    The index of a method parameter counts from after self or cls, as an
    attribute call passes it.
    """
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(top, ast.ClassDef):
                for node in top.body:
                    if isinstance(node, FUNCS):
                        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
                        yield from _defaults(path, node, 0 if static else 1)
            elif isinstance(top, FUNCS):
                yield from _defaults(path, top, 0)


def _defaults(path, node, bound):
    if node.name.startswith("_"):
        return
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i in range(first, len(positional)):
        yield path, node, positional[i].arg, i - bound
    for a, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield path, node, a.arg, None


def calls():
    out: dict[str, list[ast.Call]] = {}
    for base in CALLERS:
        for path in sorted(base.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
                    if name is not None:
                        out.setdefault(name, []).append(node)
    return out


def passes(call: ast.Call, param: str, index: int | None) -> bool:
    """Whether a call passes the parameter, by keyword or by position."""
    if any(kw.arg in (param, None) for kw in call.keywords):  # None: **kwargs
        return True
    if index is None:
        return False
    return any(isinstance(a, ast.Starred) for a in call.args) or len(call.args) > index


def test_every_default_is_passed_somewhere():
    by_name = calls()
    unpassed = []
    for path, node, param, index in defaulted_parameters():
        key = f"{node.name}({param})"
        if key in ALLOWED_DEFAULTS:
            continue
        if not any(passes(c, param, index) for c in by_name.get(node.name, [])):
            unpassed.append(f"{path.relative_to(ROOT)}:{node.lineno} {key}")
    assert not unpassed, "defaulted parameters that no call outside the tests passes:\n" + "\n".join(unpassed)


def test_every_default_is_left_out_somewhere():
    by_name = calls()
    overridden = []
    for path, node, param, index in defaulted_parameters():
        key = f"{node.name}({param})"
        if key in ALWAYS_PASSED:
            continue
        callers = by_name.get(node.name, [])
        if callers and all(passes(c, param, index) for c in callers):
            overridden.append(f"{path.relative_to(ROOT)}:{node.lineno} {key}")
    assert not overridden, "defaulted parameters that every call outside the tests passes:\n" + "\n".join(overridden)


def test_default_allowlist_entries_exist():
    keys = {f"{node.name}({param})" for _, node, param, _ in defaulted_parameters()}
    assert set(ALLOWED_DEFAULTS) <= keys
    assert set(ALWAYS_PASSED) <= keys
