"""Every name the package exports has a caller inside the package, and
every keyword parameter with a default is set by some call inside it."""

import ast
import dataclasses
import math
import pathlib
from collections import defaultdict

import craftlora
from craftlora.config import DatasetSettings, ScheduleSettings

PACKAGE_DIR = pathlib.Path(craftlora.__file__).parent

# Exports kept without a caller in the package, each for a stated reason.
UNCALLED_EXPORTS = {
    # the merged-form reference that the unmerged adapter terms are tested
    # against; the benchmark harness wraps it to count merges
    "aggregate_weights",
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


# Keyword parameters with a default that no call inside the package sets,
# each for a stated reason, as "module.Callable.parameter".
UNSET_KEYWORDS = {
    "cli.main.argv": "the console script calls main() bare; tests pass the arguments",
    "subspace.PerceptualProxy.seed": (
        "the trunk's proxy is the seed-0 stack; tests build their reference "
        "proxies at other seeds"
    ),
    **{
        f"config.{cls.__name__}.{f.name}": (
            "a config field, set from the JSON document through cls(**values), "
            "which the scan cannot match to its class"
        )
        for cls in (DatasetSettings, ScheduleSettings)
        for f in dataclasses.fields(cls)
    },
}


def _defaults(args, skip):
    """(name, position) of each parameter with a default, the position
    counted after the first ``skip`` parameters and None for keyword-only."""
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional):
        if index >= max(first, skip):
            yield arg.arg, index - skip
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def defaulted_parameters():
    """Each keyword parameter with a default on a public callable, as
    "module.Callable.parameter" -> (name the call sites use, parameter,
    position). A class is called by its name, through ``__init__`` or, for
    a dataclass, its annotated fields; a method by its own name."""
    found = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                for name, pos in _defaults(node.args, 0):
                    found[f"{module}.{node.name}.{name}"] = (node.name, name, pos)
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            fields = [
                item
                for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            ]
            for pos, item in enumerate(fields):
                if item.value is not None:
                    name = item.target.id
                    found[f"{module}.{node.name}.{name}"] = (node.name, name, pos)
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                if item.name == "__init__":
                    callee, label = node.name, node.name
                elif item.name.startswith("_"):
                    continue
                else:
                    callee, label = item.name, f"{node.name}.{item.name}"
                static = any(getattr(d, "id", None) == "staticmethod" for d in item.decorator_list)
                for name, pos in _defaults(item.args, 0 if static else 1):
                    found[f"{module}.{label}.{name}"] = (callee, name, pos)
    return found


def calls_in_the_package():
    """Per called name, each call's positional count (infinite past a
    ``*args``) and keyword names (with None for a ``**kwargs``)."""
    calls = defaultdict(list)
    for path in PACKAGE_DIR.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            calls[callee].append(
                (math.inf if starred else len(node.args), {kw.arg for kw in node.keywords})
            )
    return calls


def unset_keywords():
    calls = calls_in_the_package()
    return {
        key
        for key, (callee, name, pos) in defaulted_parameters().items()
        if not any(
            (pos is not None and pos < n_positional) or name in keywords or None in keywords
            for n_positional, keywords in calls[callee]
        )
    }


def test_every_keyword_default_is_set_inside_the_package():
    unset = sorted(unset_keywords() - set(UNSET_KEYWORDS))
    assert unset == [], f"keyword parameters no call inside craftlora sets: {unset}"


def test_every_keyword_exemption_is_still_needed():
    stale = sorted(set(UNSET_KEYWORDS) - unset_keywords())
    assert stale == [], f"exempt but gone, or now set inside craftlora: {stale}"
