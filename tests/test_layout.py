"""Layout checks on the package source: no public function without a caller."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "osczeta"

# public functions with no caller in the package, kept because the
# acceptance tests (test_acceptance.py) build their references from them
TEST_ONLY = {"zeta_em", "merged_spectrum", "golden_ratio", "sqrt2",
             "autonomous_full_identity"}


def test_every_public_function_has_a_caller():
    # a function counts as called when its name appears as a name or an
    # attribute anywhere in the package; the allowlist must name exactly
    # the public functions that do not, so it cannot go stale either
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))]
    named = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    uncalled = {node.name for tree in trees for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and not node.name.startswith("_")
                and node.name not in named}
    assert uncalled == TEST_ONLY
