"""Every defaulted parameter of a model-layer function is set by a caller.

A public function in the model packages may default a parameter only when
some call in the program (``src/``, ``scripts/``, ``benchmarks/`` or
``perfbench/``; tests and examples do not count) passes that parameter,
by keyword or by position.  Calls are matched by callee name, so a method
call ``x.f(...)`` counts for every public ``f``; a ``*args`` or
``**kwargs`` splat counts as passing every parameter.  A parameter that
only ever takes its default is a constant and belongs in the module as one.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODEL_PACKAGES = ("tech", "sram", "partition", "logic", "power", "thermal",
                  "core")
CALLER_DIRS = ("src", "scripts", "benchmarks", "perfbench")

#: Parameters a caller sets where the scan cannot see it, each with why.
ALLOWED = {
    "bit_partition(bottom_fraction=)":
        "strategies._best_over passes it through the `strategy` variable",
    "bit_partition(top_width_mult=)":
        "strategies._best_over passes it through the `strategy` variable",
    "word_partition(bottom_fraction=)":
        "strategies._best_over passes it through the `strategy` variable",
    "word_partition(top_width_mult=)":
        "strategies._best_over passes it through the `strategy` variable",
}


def _program_calls():
    """Keywords and the most positional arguments passed per callee name,
    plus the names called with a splat."""
    keywords = defaultdict(set)
    positional = defaultdict(int)
    splatted = set()
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = (func.attr if isinstance(func, ast.Attribute)
                        else getattr(func, "id", None))
                if name is None:
                    continue
                if any(isinstance(arg, ast.Starred) for arg in node.args) \
                        or any(kw.arg is None for kw in node.keywords):
                    splatted.add(name)
                keywords[name].update(kw.arg for kw in node.keywords)
                positional[name] = max(positional[name], len(node.args))
    return keywords, positional, splatted


def _public_functions(tree):
    """(name, def, is_method) for module-level functions and the methods of
    module-level classes whose names do not start with an underscore."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) \
                        and not item.name.startswith("_"):
                    yield item.name, item, True


def _defaulted(func, is_method):
    """(position or None, parameter name) of every defaulted parameter."""
    args = func.args
    ordered = args.posonlyargs + args.args
    if is_method:
        ordered = ordered[1:]
    first = len(ordered) - len(args.defaults)
    for index, arg in enumerate(ordered):
        if index >= first:
            yield index, arg.arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def unset_parameters():
    keywords, positional, splatted = _program_calls()
    unset = []
    for package in MODEL_PACKAGES:
        for path in sorted((ROOT / "src" / "repro" / package).rglob("*.py")):
            tree = ast.parse(path.read_text())
            for name, func, is_method in _public_functions(tree):
                if name in splatted:
                    continue
                for index, param in _defaulted(func, is_method):
                    if param in keywords[name]:
                        continue
                    if index is not None and positional[name] > index:
                        continue
                    unset.append(f"{name}({param}=)")
    return unset


def test_every_defaulted_model_parameter_has_a_caller():
    unset = [entry for entry in unset_parameters() if entry not in ALLOWED]
    assert unset == [], (
        "defaulted parameters no program call sets; make each a module "
        f"constant: {unset}"
    )


def test_allowlist_entries_are_still_needed():
    assert set(ALLOWED) <= set(unset_parameters())
