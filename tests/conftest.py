import os
import subprocess
import sys
from pathlib import Path

import pytest

import chainlab
from chainlab import corpus

GOLDEN = Path(__file__).parent / "golden"


def child_env(hash_seed: str | None = None) -> dict[str, str]:
    """The environment for a child Python process: PYTHONPATH starts with
    the absolute directory holding the chainlab this process imported, so
    the child imports the same package from any working directory,
    installed or not.  A ``hash_seed`` fixes the child's PYTHONHASHSEED."""
    env = dict(os.environ)
    src = str(Path(chainlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return env


def run_cli(*args: str, hash_seed: str | None = None) -> subprocess.CompletedProcess:
    """Run ``python -m chainlab.cli`` with ``args`` from the golden directory,
    in the child_env environment."""
    cmd = [sys.executable, "-m", "chainlab.cli", *args]
    env = child_env(hash_seed)
    return subprocess.run(cmd, capture_output=True, text=True, cwd=GOLDEN, env=env)


@pytest.fixture
def chain5():
    return corpus.chain_structure(5)


@pytest.fixture
def c4():
    return corpus.cycle_structure(4)


@pytest.fixture
def c5():
    return corpus.cycle_structure(5)


@pytest.fixture
def pentagon():
    return corpus.pentagon_cyclic_order()
