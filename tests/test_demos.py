"""Each bundled demo runs to completion from a source checkout, in-process, as
``tools/cli_snapshot.py`` records it: as ``__main__`` through ``runpy``."""
import pytest

from helpers import ROOT, load_tool

DEMOS = sorted((ROOT / "demos").glob("*.py"))
run_demo = load_tool("cli_snapshot").run_demo


def test_all_four_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(demo):
    recorded = run_demo(demo)
    assert "\n# exit: 0\n" in recorded, recorded
    assert recorded.partition("# stdout:\n")[2], recorded  # it prints its results
