"""The demo scripts run to completion against the current library."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script", ["convergence_study", "infsup_two_forms",
                                    "pressure_is_shadow_price",
                                    "qp_lagrange_multiplier",
                                    "stokes_pressure_is_multiplier"])
def test_demo_runs(script, capsys):
    runpy.run_path(str(DEMOS / f"{script}.py"), run_name="__main__")
    assert capsys.readouterr().out
