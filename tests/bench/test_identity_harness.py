"""The bit-identity harness enumerates its cells from the benches.

``benchmarks/check_control_identity.py`` keys the §5 grid and every
ablation bench's ``CELLS``; a baseline saved before a refactor is
checked key by key after it. These checks run no cell: they catch a
bench edit that drops, duplicates or renames a cell, or makes one
unpicklable or unkeyable, before the next ``--check`` does.
"""

import pickle
import sys
from pathlib import Path

import pytest

from repro.bench import CellSpec, ResultCache

BENCH_DIR = str(Path(__file__).resolve().parents[2] / "benchmarks")


@pytest.fixture(scope="module")
def cells():
    sys.path.insert(0, BENCH_DIR)
    try:
        import check_control_identity

        return check_control_identity.all_cells()
    finally:
        sys.path.remove(BENCH_DIR)


def test_74_unique_keys(cells):
    keys = [key for key, _spec in cells]
    assert len(keys) == 74 and len(set(keys)) == 74
    assert sum(key.startswith("grid/") for key in keys) == 18
    assert "gc_lag/0.25" in keys and "noise/cv0.4/s1" in keys


def test_every_cell_pickles_and_keys(cells, tmp_path):
    cache = ResultCache(tmp_path)
    keys = set()
    for _key, spec in cells:
        assert isinstance(spec, CellSpec)
        assert pickle.loads(pickle.dumps(spec)) == spec
        keys.add(cache.key(spec))
    assert len(keys) == len(cells)
