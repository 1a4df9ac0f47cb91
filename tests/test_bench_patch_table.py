"""The benchmark traces a run by swapping package attributes that it names
in `bench/worker.py` (`patch_table`).  A change to the package that drops
one of them fails here, and not only in `python3 bench/run.py --smoke`."""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def worker():
    # the bench modules import each other by bare name (`import workloads`);
    # no bytecode is written, so the test leaves bench/ as it found it
    sys.path.insert(0, str(BENCH))
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        yield importlib.import_module("worker")
    finally:
        sys.dont_write_bytecode = saved
        sys.path.remove(str(BENCH))


def test_every_wrapped_attribute_exists(worker):
    # worker imports workloads, whose entries name the package functions
    # the benchmark calls itself
    table = worker.patch_table()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in table if not hasattr(owner, attr)]
    assert table
    assert missing == []
