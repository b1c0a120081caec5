"""Every name the package exports has a caller inside the package, and
every keyword parameter with a default is set by some call inside it."""

import ast
import dataclasses
import math
import pathlib
from collections import defaultdict

import craftlora
from craftlora.config import DatasetSettings, RunConfig, ScheduleSettings

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
    "adapters.LoraTrainer.on_step": (
        "a hook through which tests observe each step's gradients, until the "
        "structured training records of ROADMAP item 6 replace it"
    ),
    "adapters.LoraTrainer.routing": (
        "the package trains on default_routing; the benchmark harness passes "
        "the routing explicitly"
    ),
    "guidance.GuidedSampler.record_trajectory": (
        "a hook through which tests observe every sampling state, until the "
        "structured sampling records of ROADMAP item 6 replace it"
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


# RunConfig section name -> the fields of its settings dataclass
SECTION_FIELDS = {
    f.name: {g.name for g in dataclasses.fields(f.default_factory)}
    for f in dataclasses.fields(RunConfig)
    if f.default_factory is not dataclasses.MISSING
}


def _spread(value, own_kwargs):
    """What a ``**value`` argument carries: the field names of a
    ``dataclasses.asdict(<config>.<section>)`` spread, the name of the
    enclosing callable for a spread of its own ``**kwargs`` (resolved later
    from its callers), or None for any other spread, whose keys the scan
    cannot see and which may therefore set any keyword."""
    if (
        isinstance(value, ast.Call)
        and getattr(value.func, "attr", getattr(value.func, "id", None)) == "asdict"
        and len(value.args) == 1
        and isinstance(value.args[0], ast.Attribute)
        and value.args[0].attr in SECTION_FIELDS
    ):
        return frozenset(SECTION_FIELDS[value.args[0].attr])
    if own_kwargs is not None and isinstance(value, ast.Name) and value.id == own_kwargs[0]:
        return own_kwargs[1]
    return None


def _callables(tree):
    """Each function node with the name its call sites use: a class's
    ``__init__`` is called by the class name, anything else by its own."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    yield item, node.name
        elif isinstance(node, ast.FunctionDef) and node.name != "__init__":
            yield node, node.name


def calls_in_the_package():
    """Per called name, each call's positional count (infinite past a
    ``*args``) and keyword names; a ``**kwargs`` spread contributes the
    keywords it is resolved to (None when it cannot be resolved)."""
    raw = []
    own_params = defaultdict(set)  # callee -> named parameters of its callables
    for path in PACKAGE_DIR.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        enclosing = {}
        for func, callee in _callables(tree):
            args = func.args
            own_params[callee] |= {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            for node in ast.walk(func):
                enclosing[node] = (args.kwarg.arg, callee) if args.kwarg else None
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            named = {kw.arg for kw in node.keywords if kw.arg is not None}
            spreads = [
                _spread(kw.value, enclosing.get(node)) for kw in node.keywords if kw.arg is None
            ]
            raw.append((callee, math.inf if starred else len(node.args), named, spreads))

    # the keywords that reach each callable's own **kwargs, to a fixed point
    carried = defaultdict(set)

    def keywords_of(named, spreads):
        keywords = set(named)
        for spread in spreads:
            if spread is None:
                keywords.add(None)
            else:
                keywords |= carried[spread] if isinstance(spread, str) else spread
        return keywords

    changed = True
    while changed:
        changed = False
        for callee, _, named, spreads in raw:
            extra = keywords_of(named, spreads) - own_params[callee] - carried[callee]
            if extra:
                carried[callee] |= extra
                changed = True

    calls = defaultdict(list)
    for callee, n_positional, named, spreads in raw:
        calls[callee].append((n_positional, keywords_of(named, spreads)))
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
