"""Every public name of every qpquant module resolves, and star imports work."""

import importlib

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
