"""The package namespace: ``import chainlab`` is lazy, every public name
resolves to the object its defining module holds, and each one has a use
outside the tests."""

import ast
import importlib
import pathlib
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


def _reads(path: pathlib.Path) -> set[str]:
    """The names, attributes and imported names that the top-level
    statements of ``path`` read, each statement without the name it defines,
    so a definition (recursive or not) is no use of itself."""
    out: set[str] = set()
    for statement in ast.parse(path.read_text(encoding="utf-8")).body:
        reads = set()
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                reads.add(node.attr)
            elif isinstance(node, ast.alias):
                reads.add(node.name)
        out |= reads - {getattr(statement, "name", None)}
    return out


def test_every_public_name_is_used_outside_the_tests():
    # A public function that only tests call is code kept alive by its tests.
    root = pathlib.Path(__file__).resolve().parent.parent
    paths = [p for p in (root / "src" / "chainlab").glob("*.py") if p.name != "__init__.py"]
    for folder in ("demos", "perfbench", "tools"):
        paths += (root / folder).rglob("*.py")
    used = set().union(*map(_reads, paths))
    assert [name for name in chainlab.__all__ if name not in used] == []
