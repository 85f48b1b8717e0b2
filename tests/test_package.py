"""Every exported name resolves, and the package namespace loads lazily."""

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


def test_star_import_binds_every_name(fresh_python):
    unbound = fresh_python("import json\n"
                           "from friedman_bounds import *\n"
                           "import friedman_bounds\n"
                           "print(json.dumps([n for n in friedman_bounds.__all__\n"
                           "                  if n not in globals()]))\n")
    assert unbound == []


def test_plain_import_loads_neither_chisq_nor_ranks(fresh_python):
    loaded = fresh_python("import json, sys\n"
                          "import friedman_bounds\n"
                          "print(json.dumps(sorted(sys.modules)))\n")
    assert "friedman_bounds.chisq" not in loaded
    assert "friedman_bounds.ranks" not in loaded
