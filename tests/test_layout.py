"""Layout checks on the package source: no public function or method
without a caller."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "osczeta"

# public functions with no caller in the package, kept because the
# acceptance tests (test_acceptance.py) build their references from them
TEST_ONLY = {"zeta_em", "merged_spectrum", "golden_ratio", "sqrt2",
             "autonomous_full_identity"}

# public methods with no caller in the package: perfbench's spans wrap
# `SymPoly.substitute` and the `TruncSeries` class by name, so both stay
# until the benchmark stops reading them
TEST_ONLY_METHODS = {"SymPoly.substitute", "TruncSeries.coefficient"}

TREES = [ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(SRC.glob("*.py"))]


def _named(attributes_only):
    """Every identifier the package uses as an attribute, and as a plain
    name too unless `attributes_only`."""
    named = set()
    for tree in TREES:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not attributes_only:
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return named


def test_every_public_function_has_a_caller():
    # a function counts as called when its name appears as a name or an
    # attribute anywhere in the package; the allowlist must name exactly
    # the public functions that do not, so it cannot go stale either
    named = _named(attributes_only=False)
    uncalled = {node.name for tree in TREES for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and not node.name.startswith("_")
                and node.name not in named}
    assert uncalled == TEST_ONLY


def test_every_public_method_has_a_caller():
    # a method counts as called when its name appears as an attribute
    # anywhere in the package; as above, the allowlist must be exact
    named = _named(attributes_only=True)
    uncalled = {f"{cls.name}.{node.name}" for tree in TREES
                for cls in tree.body if isinstance(cls, ast.ClassDef)
                for node in cls.body
                if isinstance(node, ast.FunctionDef)
                and not node.name.startswith("_")
                and node.name not in named}
    assert uncalled == TEST_ONLY_METHODS
