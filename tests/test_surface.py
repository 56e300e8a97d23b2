"""The library keeps only what its callers reach.

Each top-level function and class in `src/thermomap`, and each non-dunder
method or property of those classes, must be named, as an `ast.Name` or an
`ast.Attribute`, in some file under `src/`, `scripts/` or `perfbench/`. A
definition does not name itself, and neither an import alias nor a string
counts, so code that only tests reach fails here: it belongs in
`tests/helpers.py`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLERS = ("src", "scripts", "perfbench")
EXEMPT = {
    # the Markov exactness check stays for ROADMAP items 9 (collocation on
    # the Markov partition reads markov_witness's cuts) and 10 (the run
    # manifest records the exactness verdict)
    "is_topologically_exact",
    # a public export whose only caller is acceptance criterion 4, which
    # checks that averaging moves Birkhoff sums and pressure boundedly;
    # ROADMAP item 11 keeps the question of its home open
    "AveragedPotential",
}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def library_definitions() -> dict:
    """{name: where it is defined} for every top-level function and class
    and every non-dunder method or property of those classes."""
    found = {}
    for path in sorted((ROOT / "src" / "thermomap").glob("*.py")):
        for node in parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            found.setdefault(node.name, f"{path.name}:{node.lineno}")
            methods = node.body if isinstance(node, ast.ClassDef) else ()
            for item in methods:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    found.setdefault(
                        item.name, f"{path.name}:{item.lineno} ({node.name}.{item.name})"
                    )
    return found


def names_in_use() -> set:
    names = set()
    for top in CALLERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(parse(path)):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_every_library_name_has_a_caller_outside_tests():
    defined, used = library_definitions(), names_in_use()
    unreached = {name: where for name, where in defined.items()
                 if name not in used and name not in EXEMPT}
    assert not unreached, f"only tests reach: {unreached}"


def test_exemptions_are_defined_and_unreached():
    """An exemption lapses when its name goes or gains a caller."""
    defined, used = library_definitions(), names_in_use()
    assert EXEMPT <= set(defined)
    assert not EXEMPT & used
