"""Every example imports: the names it uses still exist.

Each example guards its work behind ``__main__``, so loading one under
another name runs only its imports and definitions (and its registry
calls, which the autouse conftest fixture undoes). The offline sections
— no simulation behind them — run too.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parents[1] / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_imports(path):
    namespace = runpy.run_path(str(path), run_name=f"examples_{path.stem}")
    assert namespace["__doc__"]


@pytest.mark.parametrize("example, section", [
    ("custom_policy", "drive_policies"),
    ("elastic_tracker", "drive_erlang_policy"),
])
def test_offline_section_runs(example, section, capsys):
    path = EXAMPLES[[p.stem for p in EXAMPLES].index(example)]
    runpy.run_path(str(path), run_name=f"examples_{example}")[section]()
    assert capsys.readouterr().out
