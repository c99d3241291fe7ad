import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import chainlab
from chainlab import corpus
from chainlab.core import structure

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


def run_cli(
    *args: str, hash_seed: str | None = None, timeout: float | None = None
) -> subprocess.CompletedProcess:
    """Run ``python -m chainlab.cli`` with ``args`` from the golden directory,
    in the child_env environment.  Past ``timeout`` seconds the child is
    killed and ``subprocess.TimeoutExpired`` raised."""
    cmd = [sys.executable, "-m", "chainlab.cli", *args]
    env = child_env(hash_seed)
    return subprocess.run(cmd, capture_output=True, text=True, cwd=GOLDEN, env=env, timeout=timeout)


def five_ary_structures() -> list:
    """Three 4-point structures and two 5-point structures, each with one
    5-ary relation.  From 4 points on, 4**5 words pass SHARED_WORDS_CAP, so
    their subset types are sorted members, not bit masks: read from the
    members of the sparse relations, and from the words of 4-subsets of the
    dense last one.  Constant prefixes chain over {0}, the strict orders
    and the last one's complement over the empty set along the whole
    domain, and the random one barely at all."""
    sig = [("R", 5)]
    rng = random.Random(18)
    pairs = list(itertools.combinations(range(5), 2))
    order = {(a, b, b, b, b) for a, b in pairs}
    return [
        structure(4, {"R": [(0, 0, 0, 0, e) for e in (1, 2, 3)]}, sig),
        structure(4, {"R": [(a, a, b, a, b) for a, b in pairs if b < 4]}, sig),
        structure(4, {"R": [tuple(rng.randrange(4) for _ in range(5)) for _ in range(6)]}, sig),
        structure(5, {"R": order}, sig),
        structure(5, {"R": set(itertools.product(range(5), repeat=5)) - order}, sig),
    ]


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
