"""The narrative scripts under demos/ run to completion."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "script", ["certification_run.py", "coordinate_spheres.py", "minimization_walkthrough.py"]
)
def test_demo_runs(script, capsys):
    runpy.run_path(str(DEMOS / script))["main"]()
    assert capsys.readouterr().out.strip()
