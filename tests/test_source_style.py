"""Layout rules for the package source that no installed linter enforces."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qci"
MAX_LINE = 100


def test_no_source_line_over_the_limit():
    sources = sorted(SRC.rglob("*.py"))
    assert sources
    long = [
        f"{path.relative_to(SRC)}:{number} ({len(line)} characters)"
        for path in sources
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if len(line) > MAX_LINE
    ]
    assert long == []


def test_cli_does_no_arithmetic():
    """The command line composes library calls: it builds no presentation and
    does no field arithmetic, on Scalars or on payloads."""
    source = (SRC / "cli.py").read_text(encoding="utf-8")
    forbidden = [".inverse(", "from_int(", "Presentation(", "._mul", "._pow", "._inv", "._add"]
    assert [token for token in forbidden if token in source] == []


# Functions and methods in src/ that no other code there names and __all__
# does not list, each kept for the reason given.
UNREFERENCED = {
    "linalg.rank": "the perfbench tracer wraps it by name",
    "linalg.kernel_basis": "the perfbench tracer wraps it by name",
    "linalg.solve_matrix": "the perfbench tracer wraps it by name",
    "linalg.invert": "the perfbench tracer wraps it by name",
    "linalg.is_generalized_permutation": "the perfbench tracer wraps it by name",
    "algebra.Presentation.pairing_matrix": "the perfbench tracer wraps it by name",
    "builder.closed_form_c": "documented API: the literal scalars of each regime",
    "builder.BfaStructure.from_tables": "documented API: tables on vectors and Scalars",
    "cli._Parser.error": "argparse calls it on a usage error",
}


def package_trees() -> dict:
    """The syntax tree of every module of the package, by module name."""
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.rglob("*.py"))
    }


def definitions(trees: dict):
    """(module, qualified name, node) of each module-level function and method."""
    for module, tree in trees.items():
        for node in tree.body:
            is_class = isinstance(node, ast.ClassDef)
            owner, members = (f"{node.name}.", node.body) if is_class else ("", [node])
            for f in members:
                if isinstance(f, ast.FunctionDef):
                    yield module, owner + f.name, f


def unreferenced(trees: dict) -> list:
    """The functions and methods of definitions(trees), as module.name or
    module.Class.name, that __all__ does not list and that no code of trees
    names, as a name or an attribute, outside their own body.  Dunder
    methods are called by Python and are left out."""
    exported, named = set(), []
    for module, tree in trees.items():
        for node in tree.body:
            targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
            if "__all__" in targets:
                exported.update(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                named.append((module, node.lineno, getattr(node, "id", None) or node.attr))
    return sorted(
        f"{module}.{qualname}"
        for module, qualname, f in definitions(trees)
        if not f.name.startswith("__")
        and f.name not in exported
        and not any(
            name == f.name and not (where == module and f.lineno <= line <= f.end_lineno)
            for where, line, name in named
        )
    )


def test_every_function_is_used_exported_or_allowed():
    trees = package_trees()
    assert [name for name in unreferenced(trees) if name not in UNREFERENCED] == []
    defined = {f"{module}.{qualname}" for module, qualname, _ in definitions(trees)}
    assert sorted(set(UNREFERENCED) - defined) == []


def test_a_helper_left_behind_is_found():
    """A helper whose callers are gone, or that only calls itself, is found."""
    trees = package_trees()
    trees["verify"] = ast.parse(
        (SRC / "verify.py").read_text(encoding="utf-8")
        + "\n\ndef _is_primitive(rows, i, one):\n"
        "    return i != 0 and rows[i] == [(0, i, one), (i, 0, one)]\n"
        "def _countdown(k):\n"
        "    return k and _countdown(k - 1)\n"
    )
    found = unreferenced(trees)
    assert "verify._is_primitive" in found and "verify._countdown" in found
