"""The package namespace: ``import chainlab`` is lazy, and every public name
resolves to the object its defining module holds."""

import importlib
import subprocess
import sys

import pytest
from conftest import child_env

import chainlab


def test_all_names_are_their_modules_objects():
    assert len(set(chainlab.__all__)) == len(chainlab.__all__)
    for name in chainlab.__all__:
        module = importlib.import_module(f"chainlab.{chainlab._MODULE_OF[name]}")
        assert getattr(chainlab, name) is getattr(module, name), name


def test_dir_lists_every_public_name():
    assert set(chainlab.__all__) <= set(dir(chainlab))


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from chainlab import *", namespace)
    assert all(namespace[name] is getattr(chainlab, name) for name in chainlab.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        chainlab.no_such_name
    with pytest.raises(ImportError):
        exec("from chainlab import no_such_name", {})


def test_submodules_resolve_after_a_bare_import():
    code = (
        "import chainlab\n"
        "assert chainlab.core.structure is chainlab.structure\n"
        "from chainlab import corpus, kernel\n"
        "assert kernel is chainlab.chainability.kernel\n"
        "assert corpus.chain_structure(3).size == 3\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert result.returncode == 0, result.stderr
