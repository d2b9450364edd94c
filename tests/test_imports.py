"""Import-cost contract: the scalar CLI verbs and the bare package load no numpy."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import janbessel

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs the scalar verbs in a fresh interpreter and prints, as JSON, the exit
# codes and which of the heavy modules were loaded after each stage.
CHILD = r"""
import contextlib, io, json, sys

HEAVY = ("numpy", "janbessel.verify")


def loaded():
    return [name for name in HEAVY if name in sys.modules]


import janbessel

stages = {"import janbessel": loaded()}
from janbessel.cli import run

argvs = [
    ["eval", "--p", "0.3", "--b", "1.5", "--c=-2", "--z=0.3,0.4", "--order", "2"],
    ["check", "--theorem", "subordination", "--A", "0", "--B=-1", "--kappa", "2", "--c=-1"],
    ["check", "--corollary", "re-half", "--kappa", "1.5", "--c=-1"],
    ["bounds", "--p", "1", "--z", "0.5,0"],
    ["eval", "--p", "0", "--b", "2", "--c", "1", "--z", "0,0", "--order", "7"],
    ["admissibility", "--which", "subordination", "--A", "0", "--B=-1", "--kappa", "2", "--c=-1"],
    ["admissibility", "--which", "convexity", "--A", "0.5", "--B=-0.5", "--kappa", "3", "--c=2"],
]
codes = []
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(run(argv))
stages["run"] = loaded()
print(json.dumps({"stages": stages, "codes": codes}))
"""

# The submodule that defines each exported name.
HOMES = {
    "bessel": (
        "BesselParams", "DEFAULT_CONFIG", "EvalConfig", "EvalResult", "InvalidKappa",
        "NoConvergence", "eval_u", "eval_u_many", "ode_residual",
        "recurrence_residual",
    ),
    "checks": (
        "AdmissibilityProbe", "CheckOutcome", "COROLLARY_IDS", "McCartyBounds",
        "MODE_AS_PRINTED", "MODE_CONSERVATIVE", "REGIME_SPLIT_B", "SELECTORS",
        "UnknownCorollary", "ZeroC", "admissibility_scan", "check_convexity_theorem", "check_corollary",
        "check_derivative_theorem", "check_starlike_theorem", "check_subordination_theorem",
        "eval_psi", "mccarty_bounds",
    ),
    "geometry": (
        "DISK", "DegenerateDenominator", "HALF_PLANE", "JanowskiPair", "OrderOutOfRange",
        "TargetRegion", "mobius", "pair_from_order", "region_margin",
        "region_margin_many", "target_region",
    ),
    "verify": (
        "SampleGrid", "ScanRow", "VerificationReport", "property_radius", "region_scan", "scan_conflicts", "verify_membership",
    ),
}


def test_scalar_verbs_load_neither_numpy_nor_verify():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["codes"] == [0, 0, 0, 0, 2, 0, 0]
    assert report["stages"] == {"import janbessel": [], "run": []}


def test_every_export_resolves_to_its_home_object():
    assert sorted(janbessel.__all__) == sorted(n for names in HOMES.values() for n in names)
    for module, names in HOMES.items():
        home = importlib.import_module(f"janbessel.{module}")
        for name in names:
            assert getattr(janbessel, name) is getattr(home, name), name


def test_dir_covers_all_and_unknown_names_raise():
    assert set(janbessel.__all__) <= set(dir(janbessel))
    with pytest.raises(AttributeError):
        janbessel.no_such_name
    with pytest.raises(ImportError):
        from janbessel import no_such_name  # noqa: F401
