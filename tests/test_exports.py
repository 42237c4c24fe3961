"""Every public name of every qpquant module resolves, star imports work, no
module imports a name it never uses or defines a name another module defines,
and every qpquant name and command line the benchmark workloads use exists."""

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

MODULES = ["qpquant", "qpquant.algebra", "qpquant.numerics", "qpquant.spaces",
           "qpquant.spectral", "qpquant.geometry", "qpquant.quantization", "qpquant.cli"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", None)
    if exported is not None:
        assert len(set(exported)) == len(exported)
        missing = [attr for attr in exported if not hasattr(mod, attr)]
        assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    namespace = {}
    exec(f"from {name} import *", namespace)
    if exported is not None:
        assert set(exported) <= set(namespace)


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_no_unused_name(name):
    # every name a module imports is read in it or listed in its __all__
    tree = ast.parse(Path(importlib.import_module(name).__file__).read_text())
    imported = {(a.asname or a.name).partition(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {elt.value for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
                for elt in node.value.elts}
    unused = sorted(imported - read - exported)
    assert not unused, f"{name} imports names it never uses: {unused}"


def test_benchmark_workloads_use_existing_names():
    # the workloads reach qpquant through module aliases and MCConfig; a
    # deleted or renamed name fails here instead of in a benchmark run
    from qpquant.numerics import MCConfig

    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    tree = ast.parse(path.read_text())
    aliases = {a.asname or a.name: importlib.import_module(f"qpquant.{a.name}")
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "qpquant"
               for a in node.names}
    assert set(aliases) == {"alg", "cli", "geo", "qz", "sp", "spl"}
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in aliases}
    assert used
    missing = sorted(f"{mod}.{attr}" for mod, attr in used if not hasattr(aliases[mod], attr))
    assert not missing, f"perfbench/workloads.py uses missing names: {missing}"
    fields = {f.name for f in dataclasses.fields(MCConfig)}
    keywords = {kw.arg for node in ast.walk(tree)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "MCConfig" for kw in node.keywords}
    assert keywords and keywords <= fields, keywords - fields
    # so does a renamed or dropped flag of the command lines the workloads run
    verify_argv = next(ast.literal_eval(node.value) for node in tree.body
                       if isinstance(node, ast.Assign)
                       and [getattr(t, "id", None) for t in node.targets] == ["VERIFY_ARGV"])
    for argv in (verify_argv, ["kernel"],
                 ["constants", "--n", "1", "--l-range", "0..0", "--format", "json"]):
        aliases["cli"].build_parser().parse_args(argv)


def test_no_name_is_defined_in_two_modules():
    # one name, one meaning: apart from __all__, a name that one qpquant
    # module defines at top level (a function, class or assignment) is
    # defined in no other
    where = {}
    for name in MODULES:
        tree = ast.parse(Path(importlib.import_module(name).__file__).read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for tgt in targets for t in ast.walk(tgt) if isinstance(t, ast.Name)]
            else:
                defined = []
            for attr in defined:
                where.setdefault(attr, set()).add(name)
    twice = {attr: sorted(mods) for attr, mods in where.items()
             if len(mods) > 1 and attr != "__all__"}
    assert not twice, f"names defined in more than one module: {twice}"
