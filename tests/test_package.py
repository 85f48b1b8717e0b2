"""Every exported name resolves."""

import importlib
import pkgutil

import pytest

import friedman_bounds

MODULES = ["friedman_bounds"] + [f"friedman_bounds.{m.name}"
                                 for m in pkgutil.iter_modules(friedman_bounds.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert missing == []
