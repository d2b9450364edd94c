"""Command-line front end tests: exit codes, envelope, determinism, CSV."""

import argparse
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from janbessel import AdmissibilityProbe, JanowskiPair, ScanRow, eval_psi
from janbessel.cli import CSV_HEADER, build_parser, emit_scan_csv, run

SRC = Path(__file__).resolve().parent.parent / "src"

TIMESTAMP_RE = re.compile(r"^\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z$")


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def payload_sans_timestamp(doc):
    doc = dict(doc)
    doc.pop("timestamp")
    return json.dumps(doc, sort_keys=True)


# -------------------------------------------------------------------- flags

SELECTORS = ("u", "deriv-normalized", "convexity", "starlike-zu")
MODES = ("conservative", "as-printed")
OUTPUT = {"--output": (None, False, None, None)}
EVAL_CONFIG = {"--rel-tol": (1e-14, False, None, "float"), "--max-terms": (300, False, None, "int")}
PAIR = {"--A": (None, True, None, "float"), "--B": (None, True, None, "float")}
PARAMS = {"--p": (None, True, None, "float"), "--b": (None, True, None, "float"),
          "--c": (None, True, None, "float")}
GRID = {"--radii": (24, False, None, "int"), "--angles": (256, False, None, "int"),
        "--min-radius": (0.05, False, None, "float"), "--max-radius": (0.999, False, None, "float")}

# Every verb's flags, recorded from the parser as it stood before it was
# built from parent parsers: flag -> (default, required, choices, type name).
VERB_FLAGS = {
    "eval": {**PARAMS, "--z": (None, True, None, "_parse_complex"),
             "--order": (0, False, None, "int"), **EVAL_CONFIG, **OUTPUT},
    "check": {
        "--theorem": (None, False, ("subordination", "derivative", "convexity", "starlike"), None),
        "--corollary": (None, False, ("halfplane-c-ratio", "re-half", "cc-order", "deriv-re-half"),
                        None),
        "--A": (None, False, None, "float"), "--B": (None, False, None, "float"),
        "--kappa": (None, True, None, "float"), "--c": (None, True, None, "float"),
        "--mode": ("conservative", False, MODES, None), **OUTPUT,
    },
    "verify": {"--selector": (None, True, SELECTORS, None), **PAIR, **PARAMS, **GRID,
               **EVAL_CONFIG, **OUTPUT},
    "radius": {"--selector": (None, True, SELECTORS, None), **PAIR, **PARAMS,
               "--grid-density": (256, False, None, "int"), "--tol": (1e-4, False, None, "float"),
               "--max-radius": (0.999, False, None, "float"), **EVAL_CONFIG, **OUTPUT},
    "scan": {"--selector": (None, True, SELECTORS, None), **PAIR,
             "--kappa-range": (None, True, None, "_parse_range"),
             "--c-range": (None, True, None, "_parse_range"), **GRID, **EVAL_CONFIG,
             "--workers": (1, False, None, "int"), "--mode": ("conservative", False, MODES, None),
             "--format": ("json", False, ("json", "csv"), None), **OUTPUT},
    "admissibility": {"--which": (None, True, ("subordination", "convexity"), None), **PAIR,
                      "--kappa": (None, True, None, "float"), "--c": (None, True, None, "float"),
                      **OUTPUT},
    "bounds": {"--p": (None, True, None, "float"), "--z": (None, True, None, "_parse_complex"),
               **EVAL_CONFIG, **OUTPUT},
}


def test_each_verb_keeps_its_flags():
    parser = build_parser()
    verbs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    table, groups = {}, {}
    for verb, sub in verbs.items():
        table[verb] = {
            flag: (a.default, a.required, None if a.choices is None else tuple(a.choices),
                   getattr(a.type, "__name__", None))
            for a in sub._actions if not isinstance(a, argparse._HelpAction)
            for flag in a.option_strings
        }
        groups[verb] = [([a.option_strings for a in g._group_actions], g.required)
                        for g in sub._mutually_exclusive_groups]
    assert table == VERB_FLAGS
    assert groups == {verb: [] for verb in VERB_FLAGS} | {
        "check": [([["--theorem"], ["--corollary"]], True)]
    }


# ----------------------------------------------------------------- envelope


def test_eval_envelope_and_value(capsys):
    code, doc = run_json(capsys, ["eval", "--p", "0", "--b", "2", "--c", "1", "--z", "1,0"])
    assert code == 0
    assert doc["schema_version"] == "1"
    assert doc["command"]["verb"] == "eval"
    assert TIMESTAMP_RE.match(doc["timestamp"])
    value = doc["payload"]["values"][0]
    assert abs(value[0] - 0.841470984807897) < 1e-12 and abs(value[1]) < 1e-15


def test_eval_derivatives_flag(capsys):
    code, doc = run_json(
        capsys, ["eval", "--p", "0", "--b", "2", "--c=-1", "--z", "0,0", "--order", "1"]
    )
    assert code == 0
    assert abs(doc["payload"]["values"][1][0] - 1.0 / 6.0) < 1e-15


# --------------------------------------------------------------- exit codes


def test_usage_errors_exit_two(capsys):
    assert run([]) == 2
    capsys.readouterr()
    assert run(["transmogrify"]) == 2
    capsys.readouterr()
    assert run(["eval", "--p", "0", "--b", "2", "--c", "1", "--z", "1;0"]) == 2
    capsys.readouterr()
    assert run(["eval", "--p", "0", "--b", "2", "--c", "1"]) == 2  # missing --z
    capsys.readouterr()
    # Corollary checks take no pair flags.
    assert (
        run(["check", "--corollary", "re-half", "--kappa", "1", "--c=-1", "--A", "0"]) == 2
    )
    capsys.readouterr()
    assert run(["check", "--corollary", "re-sixth", "--kappa", "1", "--c=-1"]) == 2
    capsys.readouterr()
    assert run(["check", "--theorem", "derivative", "--A", "0", "--B=-1", "--kappa", "2", "--c", "0"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["eval", "--p", "0", "--b", "2", "--c", "1", "--z", "1;0"], "complex values use the form 're,im'"),
        (["bounds", "--p", "1", "--z", "1,x"], "complex values use the form 're,im'"),
        (["scan", "--selector", "u", "--A", "0.5", "--B=-0.5", "--kappa-range", "1:6",
          "--c-range=-3:3:4"], "ranges use the form 'lo:hi:steps'"),
        (["scan", "--selector", "u", "--A", "0.5", "--B=-0.5", "--kappa-range", "1:6:4",
          "--c-range=-3:3:2.5"], "ranges use the form 'lo:hi:steps'"),
    ],
)
def test_malformed_complex_and_range_print_their_form(capsys, argv, message):
    # argparse shows an ArgumentTypeError's own message, not "invalid
    # _parse_complex value".
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err and "_parse_" not in err


@pytest.mark.parametrize("z", ["--z=nan,0", "--z=0,nan"])
@pytest.mark.parametrize(
    "verb", [["eval", "--p", "0.3", "--b", "1.5", "--c=-2"], ["bounds", "--p", "1"]]
)
def test_nan_point_exits_two(capsys, verb, z):
    assert run(verb + [z]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--theorem", "subordination", "--A", "0", "--B=-1", "--kappa", "nan", "--c=-1"],
        ["check", "--theorem", "derivative", "--A", "0", "--B=-1", "--kappa", "2", "--c", "inf"],
        ["check", "--theorem", "convexity", "--A", "0.5", "--B=-0.5", "--kappa", "inf", "--c=-1"],
        ["check", "--theorem", "starlike", "--A", "0.5", "--B=-0.5", "--kappa", "2", "--c", "nan"],
        ["check", "--corollary", "re-half", "--kappa", "nan", "--c=-1"],
        ["check", "--corollary", "cc-order", "--kappa", "2", "--c=-inf"],
    ],
)
def test_check_non_finite_input_exits_two(capsys, argv):
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "must be finite" in err


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_numeric_failures_exit_three(capsys):
    assert run(["eval", "--p=-1.5", "--b", "2", "--c", "1", "--z", "0,0"]) == 3
    err = capsys.readouterr().err
    assert "kappa" in err.lower()
    assert (
        run(["eval", "--p=-1", "--b", "2", "--c", "4", "--z", "0.999,0", "--max-terms", "4"]) == 3
    )
    capsys.readouterr()


@pytest.mark.parametrize("verb", ["verify", "radius"])
def test_c_zero_exits_two_before_the_series_fails(capsys, verb):
    # In 4 terms the series cannot converge at kappa = -50.5 (exit 3), but
    # at c = 0 the normalized derivative is undefined first (exit 2).
    argv = [verb, "--selector", "deriv-normalized", "--A", "0.5", "--B=-0.5",
            "--p=-50.5", "--b=-1", "--max-terms", "4"]
    assert run(argv + ["--c", "1"]) == 3
    assert "no tail bound" in capsys.readouterr().err
    assert run(argv + ["--c", "0"]) == 2
    assert "c = 0" in capsys.readouterr().err


def test_check_verdict_exit_codes(capsys):
    code, doc = run_json(
        capsys, ["check", "--theorem", "subordination", "--A", "0", "--B=-1", "--kappa", "2", "--c=-1"]
    )
    assert code == 0
    outcome = doc["payload"]["outcome"]
    assert outcome["satisfied"] is True
    assert outcome["branch"] == "low-B/endpoint"
    assert dict((k, v) for k, v in outcome["slacks"]) == {
        "base": 1.0,
        "guard": 3.0,
        "main": 0.5,
    }
    code, doc = run_json(
        capsys, ["check", "--theorem", "subordination", "--A", "0", "--B=-1", "--kappa", "1", "--c=-1"]
    )
    assert code == 1
    assert doc["payload"]["outcome"]["satisfied"] is False


@pytest.mark.parametrize("theorem", ["subordination", "derivative"])
@pytest.mark.parametrize("mode", ["conservative", "as-printed"])
def test_check_nan_guard_slack_exits_one(capsys, theorem, mode):
    # The guard slack is inf - inf = NaN here, written as null: not satisfied.
    code = run(["check", "--theorem", theorem, "--A", "1", "--B=-0.9907585133468555",
                "--kappa", "1e155", "--c", "1e155", "--mode", mode])
    outcome = _strict_json(capsys.readouterr().out)["payload"]["outcome"]
    assert code == 1 and outcome["satisfied"] is False
    assert dict(outcome["slacks"])["guard"] is None


@pytest.mark.parametrize(
    "theorem, c, expected",
    [("subordination", "0", 0), ("subordination", "-1", 1), ("derivative", "-1", 1), ("derivative", "1e-300", 1)],
)
def test_check_with_a_minus_b_below_1e_162_exits_cleanly(capsys, theorem, c, expected):
    # 16 (A - B)^2 underflows to 0: the envelope and vertex terms are 0 at
    # c = 0 and +inf elsewhere, where main is written as null.
    code = run(["check", "--theorem", theorem, "--A", "1e-300", "--B", "0", "--kappa", "2", f"--c={c}"])
    out = capsys.readouterr()
    outcome = _strict_json(out.out)["payload"]["outcome"]
    assert code == expected and out.err == ""
    assert outcome["satisfied"] is (expected == 0)
    assert (dict(outcome["slacks"])["main"] is None) is (c != "0")


@pytest.mark.parametrize("selector", ["u", "deriv-normalized"])
def test_scan_with_a_minus_b_below_1e_162_exits_cleanly(capsys, selector):
    code = run(["scan", "--selector", selector, "--A", "5e-324", "--B", "0", "--kappa-range", "1:2:2",
                "--c-range=-1:-0.5:2", "--radii", "2", "--angles", "8"])
    out = capsys.readouterr()
    assert code in (0, 1) and out.err == ""
    rows = _strict_json(out.out)["payload"]["rows"]
    assert [row["checker"]["satisfied"] for row in rows] == [False] * 4


@pytest.mark.parametrize(
    "ranges, message",
    [
        (["--kappa-range=-1e308:1e308:3", "--c-range=-1:1:2"],
         "kappa range -1e+308:1e+308 needs finite endpoints and a finite span"),
        (["--kappa-range=1:2:2", "--c-range=-1e308:1e308:2"],
         "c range -1e+308:1e+308 needs finite endpoints and a finite span"),
        (["--kappa-range=1:inf:3", "--c-range=-1:1:2"], "kappa range 1.0:inf needs finite endpoints and a finite span"),
        (["--kappa-range=1:2:2", "--c-range=nan:1:2"], "c range nan:1.0 needs finite endpoints and a finite span"),
    ],
    ids=["kappa-span-overflows", "c-span-overflows", "kappa-inf", "c-nan"],
)
def test_scan_rejects_a_range_without_a_finite_span(ranges, message):
    # numpy.linspace turns such a range into NaN cells, with RuntimeWarnings
    # on stderr: the range itself is named instead, on one line.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    argv = ["scan", "--selector", "u", "--A", "0.5", "--B=-0.5", *ranges, "--radii", "2", "--angles", "8"]
    result = subprocess.run([sys.executable, "-m", "janbessel.cli", *argv], env=env,
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.splitlines() == [f"error: {message}"]


VERIFY_ARGS = ["verify", "--selector", "u", "--A", "0", "--B=-1", "--p", "0", "--b", "2", "--c=-1"]


@pytest.mark.parametrize(
    "argv, message",
    [
        ([*VERIFY_ARGS, "--radii", "0"], "--radii must be >= 1, got 0"),
        ([*VERIFY_ARGS, "--min-radius", "0.6", "--max-radius", "0.5"],
         "need 0 < --min-radius <= --max-radius < 1, got 0.6, 0.5"),
        (["check", "--theorem", "subordination", "--kappa", "2", "--c=-1"], "theorem checks need --A and --B"),
        (["check", "--theorem", "subordination", "--A", "0", "--kappa", "2", "--c=-1"],
         "theorem checks need --A and --B"),
    ],
)
def test_flag_checks_print_their_message(capsys, argv, message):
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_scan_rejects_nonpositive_workers(capsys):
    argv = ["scan", "--selector", "u", "--A", "0", "--B=-1", "--kappa-range", "1:2:2",
            "--c-range=-2:-1:2", "--radii", "2", "--angles", "8", "--workers", "0"]
    assert run(argv) == 2
    assert "--workers" in capsys.readouterr().err


def test_check_corollary_payload(capsys):
    code, doc = run_json(capsys, ["check", "--corollary", "re-half", "--kappa", "1", "--c=-1"])
    assert code == 0
    outcome = doc["payload"]["outcome"]
    assert outcome["satisfied"] is True
    assert outcome["implied_pair"] == [0.0, -1.0]
    assert outcome["conclusion_bound"] == 0.5


@pytest.mark.parametrize("c", ["-1e16", "-1e17", "-1e300"])
@pytest.mark.parametrize("which", ["halfplane-c-ratio", "cc-order"])
def test_check_corollary_at_large_negative_c_reports_no_implied_pair(capsys, which, c):
    code, doc = run_json(capsys, ["check", "--corollary", which, "--kappa", "1e40", f"--c={c}"])
    outcome = doc["payload"]["outcome"]
    assert code == (0 if outcome["satisfied"] else 1)
    assert code == (1 if c == "-1e300" else 0)
    rounded = not (which == "cc-order" and c == "-1e16")
    assert (outcome["implied_pair"] is None) == rounded


def test_check_convexity_mode_flag(capsys):
    base = ["check", "--theorem", "convexity", "--A", "0.5", "--B=-0.5", "--kappa", "0", "--c", "8"]
    code, _ = run_json(capsys, base)
    assert code == 1
    code, _ = run_json(capsys, base + ["--mode", "as-printed"])
    assert code == 0


@pytest.mark.parametrize("mode", MODES)
def test_check_payload_echoes_mode_for_the_theorems_that_read_it(capsys, mode):
    from janbessel.checks import MODE_THEOREMS, THEOREM_NAMES

    assert MODE_THEOREMS == ("convexity", "starlike")
    for theorem in THEOREM_NAMES:
        _, doc = run_json(capsys, ["check", "--theorem", theorem, "--A", "0.5", "--B=-0.5", "--kappa", "2",
                                   "--c", "1", "--mode", mode])
        assert doc["payload"]["mode"] == (mode if theorem in MODE_THEOREMS else None), theorem


def test_verify_verdict_exit_codes(capsys):
    good = [
        "verify", "--selector", "u", "--A", "0", "--B=-1",
        "--p=-0.5", "--b", "2", "--c=-1", "--radii", "8", "--angles", "32",
    ]
    code, doc = run_json(capsys, good)
    assert code == 0
    assert doc["payload"]["verdict"] == "holds-on-grid"
    assert doc["payload"]["min_margin"] > 0.0
    bad = [
        "verify", "--selector", "u", "--A", "0.1", "--B=-1",
        "--p=-0.5", "--b", "2", "--c", "6", "--radii", "8", "--angles", "32",
    ]
    code, doc = run_json(capsys, bad)
    assert code == 1
    assert doc["payload"]["verdict"] == "counterexample"
    assert doc["payload"]["min_margin"] < 0.0


def test_one_radius_samples_the_max_radius_circle(capsys):
    argv = ["verify", "--selector", "u", "--A", "0", "--B=-1", "--p=-0.5", "--b", "2", "--c=-1",
            "--radii", "1", "--angles", "16"]
    code, doc = run_json(capsys, argv)
    assert code == 0
    assert doc["payload"]["grid"]["radii"] == [0.999]
    code, doc = run_json(capsys, argv + ["--max-radius", "0.9"])
    assert doc["payload"]["grid"]["radii"] == [0.9]


def test_radius_verb(capsys):
    code, doc = run_json(
        capsys,
        ["radius", "--selector", "u", "--A", "0", "--B=-1", "--p", "0", "--b", "2", "--c=-1"],
    )
    assert code == 0
    assert doc["payload"]["radius"] == 0.999
    code, doc = run_json(
        capsys,
        ["radius", "--selector", "convexity", "--A", "1", "--B=-1", "--p", "0.5", "--b", "2", "--c", "0"],
    )
    assert code == 1
    assert doc["payload"]["radius"] == 0.0


def test_radius_tol_below_float_spacing_returns():
    # Below the float spacing near the radius, the search's midpoint rounds
    # to an end; it must stop there instead of spinning.  Run in a child
    # process so that a hang fails the test instead of stalling it.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    argv = ["radius", "--selector", "u", "--A", "0.1", "--B=-1", "--p=-0.5", "--b", "2", "--c", "6",
            "--tol", "1e-17"]
    result = subprocess.run([sys.executable, "-m", "janbessel.cli", *argv], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    radius = json.loads(result.stdout)["payload"]["radius"]
    # u = 0F1(; 1; -1.5 z) meets the edge 0.45 at r = 0.431733090440526 (mpmath).
    assert abs(radius - 0.431733090440526) <= math.ulp(0.431733090440526)


def test_admissibility_verb(capsys):
    code, doc = run_json(
        capsys,
        ["admissibility", "--which", "subordination", "--A", "0", "--B=-1", "--kappa", "2", "--c=-1"],
    )
    assert code == 0
    assert abs(doc["payload"]["max_re"] - (-0.25)) < 1e-15
    probe = doc["payload"]["argmax"]
    assert probe["rho"] == 0.0 and probe["sigma"] == -0.5 and probe["mu"] == 0.5


def test_admissibility_unbounded_supremum_is_null_and_exits_one(capsys):
    # B = -1 with kappa < 1: Re Psi is unbounded in sigma.  The payload
    # writes the supremum as null, and the argmax is a probe with Re Psi > 0.
    code, doc = run_json(
        capsys,
        ["admissibility", "--which", "subordination", "--A", "0", "--B=-1", "--kappa", "0.5",
         "--c=-1"],
    )
    assert code == 1
    payload = doc["payload"]
    assert payload["max_re"] is None
    probe = payload["argmax"]
    at = AdmissibilityProbe(probe["rho"], probe["sigma"], probe["mu"], probe["nu"], complex(*probe["z"]))
    assert eval_psi("subordination", JanowskiPair(0.0, -1.0), 0.5, -1.0, at).real > 0.0


@pytest.mark.parametrize("which", ["subordination", "convexity"])
@pytest.mark.parametrize("c", ["1e-310", "5e-324", "-5e-324"])
def test_admissibility_verb_at_subnormal_c(capsys, which, c):
    code, doc = run_json(
        capsys, ["admissibility", "--which", which, "--A", "1", "--B", "0.5", "--kappa", "2", f"--c={c}"]
    )
    assert code == 0
    assert abs(complex(*doc["payload"]["argmax"]["z"])) < 1.0


@pytest.mark.parametrize(
    "flags",
    [
        ["--kappa", "inf", "--c=-1"],
        ["--kappa", "2", "--c", "nan"],
    ],
)
def test_admissibility_non_finite_input_exits_two(capsys, flags):
    argv = ["admissibility", "--which", "subordination", "--A", "0", "--B=-1"] + flags
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


def test_bounds_verb(capsys):
    code, doc = run_json(capsys, ["bounds", "--p", "1", "--z", "0.5,0"])
    assert code == 0
    assert doc["payload"]["all_hold"] is True
    checks = {row["label"]: row for row in doc["payload"]["checks"]}
    assert abs(checks["modulus-upper"]["bound"] - 1.4) < 1e-12
    assert checks["real-part-lower"]["holds"] and checks["derivative-upper"]["holds"]
    code, _ = run_json(capsys, ["bounds", "--p", "0", "--z", "0,0"])
    assert code == 0


# --------------------------------------------------------------------- scans


SCAN_ARGS = [
    "scan", "--selector", "u", "--A", "0", "--B=-1",
    "--kappa-range", "1:5:9", "--c-range=-3:0:7",
    "--radii", "6", "--angles", "16",
]


def test_scan_csv_shape_and_discrepancy_row(capsys):
    code = run(SCAN_ARGS + ["--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 63
    gap = [ln for ln in lines if ln.startswith("1,-1,")]
    assert len(gap) == 1
    fields = gap[0].split(",")
    assert fields[2] == "false" and fields[4] == "true" and fields[5] == "holds-on-grid"
    assert float(fields[6]) > 0.0


def test_scan_json_csv_parity(capsys):
    code = run(SCAN_ARGS + ["--format", "csv"])
    csv_out = capsys.readouterr().out
    assert code == 0
    code, doc = run_json(capsys, SCAN_ARGS + ["--format", "json"])
    assert code == 0
    rows = doc["payload"]["rows"]
    csv_rows = csv_out.strip().split("\n")[1:]
    assert len(rows) == len(csv_rows)
    for row, line in zip(rows, csv_rows):
        fields = line.split(",")
        assert float(fields[0]) == row["kappa"]
        assert float(fields[1]) == row["c"]
        assert float(fields[6]) == row["min_margin"]
        assert float(fields[7]) == row["witness"][0]
        assert float(fields[8]) == row["witness"][1]


def test_scan_exit_one_on_conflicts(capsys):
    # No honest cell conflicts exist under the shipped checkers, so the clean
    # sweep exits 0; the conflict path is covered at the library level.
    assert run(SCAN_ARGS + ["--format", "csv"]) == 0
    capsys.readouterr()


def test_emit_scan_csv_rejects_empty():
    sink = io.StringIO()
    with pytest.raises(ValueError):
        emit_scan_csv([], sink)
    assert sink.getvalue() == ""


def test_scan_csv_file_output(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code = run(SCAN_ARGS + ["--format", "csv", "--output", str(target)])
    capsys.readouterr()
    assert code == 0
    content = target.read_text()
    assert content.startswith(CSV_HEADER)
    assert len(content.strip().split("\n")) == 64


@pytest.mark.parametrize(
    "argv",
    [["eval", "--p", "0", "--b", "2", "--c", "1", "--z", "1,0"], SCAN_ARGS + ["--format", "csv"]],
)
def test_unwritable_output_exits_two(tmp_path, capsys, argv):
    target = tmp_path / "no_such_dir" / "out"
    assert run(argv + ["--output", str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    assert not target.exists()


def test_json_file_output(tmp_path, capsys):
    target = tmp_path / "out.json"
    code = run(["eval", "--p", "0", "--b", "2", "--c", "1", "--z", "1,0", "--output", str(target)])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["schema_version"] == "1"


# --------------------------------------------------------------- determinism


def test_payloads_are_deterministic(capsys):
    for argv in (
        ["eval", "--p", "0.3", "--b", "1.1", "--c=-2", "--z=-0.4,0.25"],
        ["check", "--theorem", "starlike", "--A", "0.6", "--B=-0.4", "--kappa", "2", "--c", "1"],
        ["bounds", "--p", "0.5", "--z", "0.3,0.4"],
    ):
        _, first = run_json(capsys, argv)
        _, second = run_json(capsys, argv)
        assert payload_sans_timestamp(first) == payload_sans_timestamp(second)


def test_scan_csv_is_byte_identical_across_runs(capsys):
    run(SCAN_ARGS + ["--format", "csv"])
    first = capsys.readouterr().out
    run(SCAN_ARGS + ["--format", "csv"])
    second = capsys.readouterr().out
    assert first == second


# --------------------------------------------------------------- method

QUOTIENT_SCAN_ARGS = [
    "scan", "--selector", "starlike-zu", "--A", "0.6", "--B=-0.4",
    "--kappa-range", "0.5:3:2", "--c-range=-4:4:3", "--radii", "6", "--angles", "16",
]

# The CSV of QUOTIENT_SCAN_ARGS as it was before reports recorded their
# method: the real-axis cells (kappa 3, c = -4 and 4) keep every byte.  At
# c = 0 the checker takes its exact "c=0" branch, satisfied at every kappa.
QUOTIENT_SCAN_CSV = """\
kappa,c,checker,branch,corollary,numeric,min_margin,witness_re,witness_im
0.5,-4,false,conservative,n/a,counterexample,-7.5764598503243965,-0.54884080347572806,0
0.5,0,true,c=0,n/a,holds-on-grid,0.71428571428571419,0.050000000000000003,0
0.5,4,false,conservative,n/a,counterexample,-7.5764598503243965,0.54884080347572806,0
3,-4,true,conservative,n/a,holds-on-grid,0.34923817238861143,-0.999,0
3,0,true,c=0,n/a,holds-on-grid,0.71428571428571419,0.050000000000000003,0
3,4,true,conservative,n/a,holds-on-grid,0.34923817238861143,0.999,0
"""


def test_scan_reports_the_method_in_json_and_keeps_the_csv_bytes(capsys):
    assert run(QUOTIENT_SCAN_ARGS + ["--format", "csv"]) == 0
    assert capsys.readouterr().out == QUOTIENT_SCAN_CSV
    code, doc = run_json(capsys, QUOTIENT_SCAN_ARGS + ["--format", "json"])
    assert code == 0
    methods = [row["method"] for row in doc["payload"]["rows"]]
    assert methods == ["sampled", "sampled", "sampled", "real-axis", "sampled", "real-axis"]


def test_verify_reports_the_method(capsys):
    base = ["verify", "--A", "0", "--B=-1", "--p=-0.5", "--b", "2", "--c=-1",
            "--radii", "8", "--angles", "32"]
    for selector, method in (("u", "sampled"), ("starlike-zu", "real-axis"), ("convexity", "real-axis")):
        code, doc = run_json(capsys, base + ["--selector", selector])
        assert code == 0 and doc["payload"]["method"] == method


# ------------------------------------------------------------- strict JSON

DEGENERATE_ARGS = ["--selector", "convexity", "--A", "1", "--B=-1", "--radii", "2", "--angles", "8"]
DEGENERATE_SCAN_ARGS = ["scan", *DEGENERATE_ARGS, "--kappa-range", "1.5:2.5:2", "--c-range=-1:1:3"]

# The CSV of DEGENERATE_SCAN_ARGS: a report without a witness keeps its nan fields.
DEGENERATE_SCAN_CSV = """\
kappa,c,checker,branch,corollary,numeric,min_margin,witness_re,witness_im
1.5,-1,true,conservative,n/a,holds-on-grid,0.89711557420466315,-0.999,0
1.5,0,false,c=0,n/a,counterexample,nan,nan,nan
1.5,1,true,conservative,n/a,holds-on-grid,0.89711557420466315,0.999,0
2.5,-1,true,conservative,n/a,holds-on-grid,0.927481108723063,-0.999,0
2.5,0,false,c=0,n/a,counterexample,nan,nan,nan
2.5,1,true,conservative,n/a,holds-on-grid,0.927481108723063,0.999,0
"""


def _strict_json(text):
    # RFC 8259 has no NaN or Infinity: parse with a hook that refuses them.
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


def test_reports_without_a_witness_write_null_margins(capsys):
    code = run(["verify", *DEGENERATE_ARGS, "--p", "1.5", "--b", "2", "--c", "0"])
    payload = _strict_json(capsys.readouterr().out)["payload"]
    assert code == 1
    assert payload["verdict"] == "counterexample"
    assert payload["min_margin"] is None and payload["witness"] is None
    # At c = 0 every sample is degenerate and the checker, which has no
    # functional to speak of there, is not satisfied: no conflict, exit 0.
    assert run(DEGENERATE_SCAN_ARGS + ["--format", "json"]) == 0
    payload = _strict_json(capsys.readouterr().out)["payload"]
    rows = payload["rows"]
    assert payload["conflicts"] == 0
    assert [row["min_margin"] is None for row in rows] == [False, True, False] * 2
    assert all((row["min_margin"] is None) == (row["witness"] is None) for row in rows)
    assert run(DEGENERATE_SCAN_ARGS + ["--format", "csv"]) == 0
    assert capsys.readouterr().out == DEGENERATE_SCAN_CSV


def test_small_c_reports_hold_where_u_prime_underflows(capsys):
    # -4 kappa / c overflows at c = -1e-308, and |u'| = |c / (4 kappa)| |u_{p+1}|
    # falls below the degeneracy tolerance at c = 1e-14; read one order up,
    # both functionals hold with a finite margin and the scan has no conflict.
    code = run(["verify", "--selector", "deriv-normalized", "--A", "0", "--B=-1", "--p", "1", "--b=-1",
                "--c=-1e-308"])
    payload = _strict_json(capsys.readouterr().out)["payload"]
    assert code == 0 and payload["verdict"] == "holds-on-grid" and payload["min_margin"] == 0.5
    code = run(["verify", "--selector", "convexity", "--A", "0.7", "--B=-0.3", "--p", "2", "--b=-1",
                "--c=1e-14"])
    payload = _strict_json(capsys.readouterr().out)["payload"]
    assert code == 0 and payload["method"] == "real-axis" and payload["degeneracy_hits"] == []
    assert abs(payload["min_margin"] - 10.0 / 13.0) < 1e-12
    code = run(["scan", "--selector", "convexity", "--A", "0.7", "--B=-0.3", "--kappa-range", "1:3:3",
                "--c-range=1e-14:2e-14:2", "--radii", "4", "--angles", "16"])
    payload = _strict_json(capsys.readouterr().out)["payload"]
    assert code == 0 and payload["conflicts"] == 0
    assert {row["numeric"] for row in payload["rows"]} == {"holds-on-grid"}


def test_check_payloads_have_one_shape(capsys):
    # Theorems and corollaries write the same keys; mode is null wherever the
    # check does not read it, as for a corollary.
    _, theorem = run_json(capsys, ["check", "--theorem", "subordination", "--A", "0", "--B=-1", "--kappa", "2",
                                   "--c=-1"])
    _, corollary = run_json(capsys, ["check", "--corollary", "re-half", "--kappa", "1", "--c=-1", "--mode",
                                     "as-printed"])
    assert list(theorem["payload"]) == list(corollary["payload"]) == [
        "check", "pair", "kappa", "c", "mode", "outcome"
    ]
    assert corollary["payload"]["pair"] is None and corollary["payload"]["mode"] is None


OUTCOME_KEYS = ["satisfied", "branch", "slacks", "notes", "implied_pair", "conclusion_bound"]
PARAMS_KEYS = ["p", "b", "c", "kappa"]

# Each verb's payload keys, and those of the objects nested in it, in the
# order written: library objects follow their dataclass field order.
PAYLOAD_KEYS = [
    (["eval", "--p", "0", "--b", "2", "--c", "1", "--z", "1,0"], {
        (): ["params", "z", "order", "values", "terms_used", "truncation_estimate"],
        ("params",): PARAMS_KEYS,
    }),
    (["check", "--theorem", "subordination", "--A", "0", "--B=-1", "--kappa", "2", "--c=-1"], {
        (): ["check", "pair", "kappa", "c", "mode", "outcome"],
        ("outcome",): OUTCOME_KEYS,
    }),
    (["verify", "--selector", "u", "--A", "0", "--B=-1", "--p", "0", "--b", "2", "--c=-1",
      "--radii", "2", "--angles", "8"], {
        (): ["selector", "pair", "params", "verdict", "min_margin", "witness", "grid", "degeneracy_hits",
             "method"],
        ("params",): PARAMS_KEYS,
        ("grid",): ["radii", "angles", "max_radius"],
    }),
    (["radius", "--selector", "u", "--A", "0.1", "--B=-1", "--p=-0.5", "--b", "2", "--c", "6"], {
        (): ["selector", "pair", "params", "radius", "tol", "grid_density", "max_radius"],
        ("params",): PARAMS_KEYS,
    }),
    (["scan", "--selector", "u", "--A", "0", "--B=-1", "--kappa-range", "1:2:2", "--c-range=-2:-1:2",
      "--radii", "2", "--angles", "8"], {
        (): ["selector", "pair", "mode", "kappa_range", "c_range", "workers", "conflicts", "rows"],
        ("rows", 0): ["kappa", "c", "checker", "corollary_id", "corollary", "numeric", "min_margin", "witness",
                      "method"],
        ("rows", 0, "checker"): OUTCOME_KEYS,
        ("rows", 0, "corollary"): OUTCOME_KEYS,
    }),
    (["admissibility", "--which", "subordination", "--A", "0", "--B=-1", "--kappa", "2", "--c=-1"], {
        (): ["which", "pair", "kappa", "c", "max_re", "argmax"],
        ("argmax",): ["rho", "sigma", "mu", "nu", "z"],
    }),
    (["bounds", "--p", "1", "--z", "0.5,0"], {
        (): ["p", "z", "checks", "notes", "all_hold"],
        ("checks", 0): ["label", "bound", "observed", "holds"],
        ("checks", 2): ["label", "bound", "observed", "holds"],
    }),
]


@pytest.mark.parametrize("argv, keys", PAYLOAD_KEYS, ids=[argv[0] for argv, _ in PAYLOAD_KEYS])
def test_payload_key_order(capsys, argv, keys):
    _, doc = run_json(capsys, argv)
    assert list(doc) == ["schema_version", "command", "timestamp", "payload"]
    for path, expected in keys.items():
        node = doc["payload"]
        for step in path:
            node = node[step]
        assert list(node) == expected, path


def test_non_finite_checker_slacks_are_written_as_null(capsys):
    # kappa - c (c + 1) / 2 overflows to -inf here.
    code = run(["check", "--corollary", "cc-order", "--kappa", "1e40", "--c=-1e300"])
    outcome = _strict_json(capsys.readouterr().out)["payload"]["outcome"]
    assert code == 1 and not outcome["satisfied"]
    assert outcome["slacks"] == [["kappa-margin", None]]


@pytest.mark.parametrize(
    "ranges, code, message",
    [
        # The derivative checker's message, not the sampled functional's.
        (["--kappa-range", "1:2:2", "--c-range=-1:1:3"], 2,
         "error: the normalized derivative (-4 kappa / c) u' is undefined at c = 0\n"),
        (["--kappa-range=-0.5:0.5:3", "--c-range", "1:2:2"], 3,
         "error: kappa = 0.0 is within 1e-09 of the excluded value 0\n"),
    ],
)
def test_scan_reports_the_first_failing_cell(capsys, ranges, code, message):
    argv = ["scan", "--selector", "deriv-normalized", "--A", "0.5", "--B=-0.5",
            "--radii", "2", "--angles", "8", *ranges]
    assert run(argv) == code
    out = capsys.readouterr()
    assert out.out == "" and out.err == message
