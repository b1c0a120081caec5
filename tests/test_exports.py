"""Every name the package exports has a caller inside the package."""

import ast
import pathlib

import craftlora

PACKAGE_DIR = pathlib.Path(craftlora.__file__).parent

# Exports kept without a caller in the package, each for a stated reason.
UNCALLED_EXPORTS = {
    # the merged-form reference that the unmerged adapter terms are tested
    # against; the benchmark harness wraps it to count merges
    "aggregate_weights",
    # the paper's standard classifier-free guidance baseline, which the
    # acceptance tests compare the guided sampler with
    "cfg_sample",
    # the QR backward pass, checked against finite differences; the trunk's
    # projector-form basis gradient is tested against it, and the benchmark
    # harness wraps it to count calls
    "qr_backward",
}


def referenced_names(tree):
    """Names a module uses, each counted only outside its own def or class."""
    found = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            name = None
        if name is not None and name not in enclosing:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return found


def names_used_in_the_package():
    used = set()
    for path in PACKAGE_DIR.glob("*.py"):
        if path.name != "__init__.py":
            used |= referenced_names(ast.parse(path.read_text(encoding="utf-8")))
    return used


def test_every_export_has_a_caller_in_the_package():
    uncalled = sorted(set(craftlora.__all__) - names_used_in_the_package() - UNCALLED_EXPORTS)
    assert uncalled == [], f"exported but never called inside craftlora: {uncalled}"


def test_every_exemption_is_still_needed():
    used = names_used_in_the_package()
    stale = sorted(
        name for name in UNCALLED_EXPORTS if name not in craftlora.__all__ or name in used
    )
    assert stale == [], f"exempt but no longer exported, or now called: {stale}"
