"""Smoke tests: the demo scripts and the README's quick start run to
completion and print what they promise.

``demos/dimension_sweep.py`` is left out because it starts a process pool.
"""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


@pytest.mark.parametrize("name", ["gap_certificates.py", "level_chain_duality.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert len(capsys.readouterr().out.splitlines()) >= 5


def test_readme_quick_start(capsys):
    readme = (ROOT / "README.md").read_text()
    quick_start = readme.split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", quick_start, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    gap, iat = (float(line) for line in capsys.readouterr().out.split())
    assert gap == pytest.approx(0.664, abs=1e-3)
    assert iat < 2.0
