"""Smoke tests: the demo scripts run to completion and print their tables.

``demos/dimension_sweep.py`` is left out because it starts a process pool.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["gap_certificates.py", "level_chain_duality.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert len(capsys.readouterr().out.splitlines()) >= 5
