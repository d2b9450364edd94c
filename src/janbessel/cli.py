"""Command-line front end.

Verbs
-----
    eval           series values and derivatives at one disk point
    check          one sufficient-condition checker (theorem or corollary)
    verify         sampled membership test of a property functional
    radius         property radius for a functional, a root of its margin
    scan           (kappa, c) region sweep; JSON or CSV output
    admissibility  supremum of Re Psi over the admissible set
    bounds         the three pointwise bounds for i_p at a disk point

Every verb prints a JSON envelope {schema_version, command, timestamp,
payload} to stdout (or --output PATH); `scan --format csv` prints bare CSV
instead.  Complex values are written as "re,im"; ranges as "lo:hi:steps".
Values starting with a dash need the --flag=value form.

Exit codes: 0 success with a holding/satisfied verdict (or no verdict);
1 clean completion with a negative verdict (not satisfied, counterexample,
scan soundness conflicts, nonnegative or unbounded admissibility supremum,
zero radius); 2 usage errors (including a NaN in a point, a non-finite
kappa or c, admissibility inputs on which Re Psi is not finite and an
--output path that cannot be written); 3 numeric failures (invalid kappa,
series non-convergence).

The sampling grid of `verify` and `scan` has --radii circles spaced
geometrically from --min-radius to --max-radius; `--radii 1` samples the
--max-radius circle alone.

The payload for fixed flags is deterministic: reruns differ only in the
timestamp field.

`eval`, `check`, `bounds` and `admissibility` are pure Python: this module
imports `verify`, and with it numpy, only inside the handlers of the
sampling verbs, so the four scalar verbs start without either.  A
non-finite checker slack is written as null, and so is an unbounded
admissibility supremum ("max_re"), its argmax a probe with Re Psi > 0.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from datetime import datetime, timezone
from typing import TYPE_CHECKING, TextIO

from .bessel import (
    BesselParams,
    DEFAULT_CONFIG,
    DISK_SLACK,
    EvalConfig,
    InvalidKappa,
    NoConvergence,
    eval_u,
)
from .checks import (
    COROLLARY_IDS,
    MODE_CONSERVATIVE,
    MODE_THEOREMS,
    MODES,
    SELECTORS,
    THEOREM_NAMES,
    CheckOutcome,
    admissibility_scan,
    check_corollary,
    check_theorem,
    mccarty_bounds,
)
from .geometry import DegenerateDenominator, JanowskiPair

if TYPE_CHECKING:
    from .verify import SampleGrid, ScanRow, VerificationReport

SCHEMA_VERSION = "1"

CSV_HEADER = "kappa,c,checker,branch,corollary,numeric,min_margin,witness_re,witness_im"


# argparse prints an ArgumentTypeError's message, but replaces a ValueError's.
def _parse_complex(text: str) -> complex:
    try:
        re, im = text.split(",")
        return complex(float(re), float(im))
    except ValueError:
        raise argparse.ArgumentTypeError(f"complex values use the form 're,im', got {text!r}") from None


def _parse_range(text: str) -> tuple[float, float, int]:
    try:
        lo, hi, steps = text.split(":")
        return float(lo), float(hi), int(steps)
    except ValueError:
        raise argparse.ArgumentTypeError(f"ranges use the form 'lo:hi:steps', got {text!r}") from None


def _complex_list(z: complex) -> list[float]:
    return [z.real, z.imag]


def _pair_list(pair: JanowskiPair) -> list[float]:
    return [pair.A, pair.B]


def _params_dict(params: BesselParams) -> dict:
    return {"p": params.p, "b": params.b, "c": params.c, "kappa": params.kappa}


def _outcome_dict(outcome: CheckOutcome) -> dict:
    return {
        "satisfied": outcome.satisfied,
        "branch": outcome.branch,
        "slacks": [[label, value if math.isfinite(value) else None] for label, value in outcome.slacks],
        "notes": list(outcome.notes),
        "implied_pair": None if outcome.implied_pair is None else _pair_list(outcome.implied_pair),
        "conclusion_bound": outcome.conclusion_bound,
    }


def _report_dict(report: VerificationReport) -> dict:
    return {
        "selector": report.selector,
        "pair": _pair_list(report.pair),
        "params": _params_dict(report.params),
        "verdict": report.verdict,
        "min_margin": None if report.witness is None else report.min_margin,
        "witness": None if report.witness is None else _complex_list(report.witness),
        "grid": {
            "radii": list(report.grid.radii),
            "angles": report.grid.angles,
            "max_radius": report.grid.max_radius,
        },
        "degeneracy_hits": [
            [_complex_list(z), reason] for z, reason in report.degeneracy_hits
        ],
        "method": report.method,
    }


def _row_dict(row: ScanRow) -> dict:
    return {
        "kappa": row.kappa,
        "c": row.c,
        "checker": _outcome_dict(row.checker),
        "corollary_id": row.corollary_id,
        "corollary": None if row.corollary is None else _outcome_dict(row.corollary),
        "numeric": row.report.verdict,
        "min_margin": None if row.report.witness is None else row.report.min_margin,
        "witness": None if row.report.witness is None else _complex_list(row.report.witness),
        "method": row.report.method,
    }


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def emit_scan_csv(rows: list[ScanRow], sink: TextIO) -> None:
    """Write scan rows as CSV with round-trip-exact floats.

    The full document is built before anything is written, so a failure
    cannot leave a partial file; an empty row list is an error.
    """
    if not rows:
        raise ValueError("refusing to emit a CSV with no scan rows")
    lines = [CSV_HEADER]
    for row in rows:
        if row.corollary is None:
            corollary = "n/a"
        else:
            corollary = "true" if row.corollary.satisfied else "false"
        witness = row.report.witness
        w_re = witness.real if witness is not None else math.nan
        w_im = witness.imag if witness is not None else math.nan
        lines.append(
            ",".join(
                [
                    _g17(row.kappa),
                    _g17(row.c),
                    "true" if row.checker.satisfied else "false",
                    row.checker.branch,
                    corollary,
                    row.report.verdict,
                    _g17(row.report.min_margin),
                    _g17(w_re),
                    _g17(w_im),
                ]
            )
        )
    sink.write("\n".join(lines) + "\n")


def _eval_config(ns: argparse.Namespace) -> EvalConfig:
    return EvalConfig(rel_tol=ns.rel_tol, max_terms=ns.max_terms)


def _grid_from_flags(ns: argparse.Namespace) -> SampleGrid:
    if ns.radii < 1:
        raise ValueError(f"--radii must be >= 1, got {ns.radii}")
    if not (0.0 < ns.min_radius <= ns.max_radius < 1.0):
        raise ValueError(
            f"need 0 < --min-radius <= --max-radius < 1, got {ns.min_radius}, {ns.max_radius}"
        )
    import numpy as np

    from .verify import SampleGrid

    # geomspace(lo, hi, 1) is [lo]; one circle means the outermost one.
    lo = ns.min_radius if ns.radii > 1 else ns.max_radius
    radii = tuple(np.geomspace(lo, ns.max_radius, ns.radii))
    return SampleGrid(radii=radii, angles=ns.angles, max_radius=ns.max_radius)


def build_parser() -> argparse.ArgumentParser:
    """One subparser per verb; shared flags come from parent parsers."""
    output, selector, pair, params, radius_cap, eval_config, kappa_c, point, mode = (
        argparse.ArgumentParser(add_help=False) for _ in range(9)
    )
    output.add_argument("--output", default=None, help="write the report here instead of stdout")
    selector.add_argument("--selector", choices=SELECTORS, required=True)
    pair.add_argument("--A", type=float, required=True, help="region parameter A")
    pair.add_argument("--B", type=float, required=True, help="region parameter B")
    params.add_argument("--p", type=float, required=True, help="series order parameter")
    params.add_argument("--b", type=float, required=True, help="series family parameter")
    params.add_argument("--c", type=float, required=True, help="series scale parameter")
    radius_cap.add_argument("--max-radius", type=float, default=0.999,
                            help="outermost sample radius / radius cap")
    eval_config.add_argument("--rel-tol", type=float, default=DEFAULT_CONFIG.rel_tol,
                             help="series truncation tolerance; despite the name an absolute, "
                             "not a relative, bound on every value's omitted tail on "
                             f"|z| <= 1 + {DISK_SLACK:g}")
    eval_config.add_argument("--max-terms", type=int, default=DEFAULT_CONFIG.max_terms,
                             help="series term budget")
    kappa_c.add_argument("--kappa", type=float, required=True)
    kappa_c.add_argument("--c", type=float, required=True)
    point.add_argument("--z", type=_parse_complex, required=True, help="point 're,im'")
    mode.add_argument("--mode", choices=MODES, default=MODE_CONSERVATIVE,
                      help=f"{'/'.join(MODE_THEOREMS)} conditions: conservative: the admissibility "
                      "lemma's exact condition; as-printed: the paper's inequalities")
    # A parent's flags are copied when a parser is built from it, so the
    # grid parent comes after --max-radius exists.
    grid = argparse.ArgumentParser(add_help=False, parents=[radius_cap])
    grid.add_argument("--radii", type=int, default=24,
                      help="number of geometrically spaced sample radii; 1 samples --max-radius")
    grid.add_argument("--angles", type=int, default=256, help="angles per sampled circle")
    grid.add_argument("--min-radius", type=float, default=0.05, help="innermost sample radius")

    parser = argparse.ArgumentParser(
        prog="janbessel",
        description="Generalized Bessel series and Janowski-region membership tools",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_eval = sub.add_parser("eval", help="evaluate the series at a point",
                            parents=[params, point, eval_config, output])
    p_eval.add_argument("--order", type=int, default=0, help="highest derivative (0..3)")
    p_eval.set_defaults(handler=_cmd_eval)

    p_check = sub.add_parser("check", help="run one sufficient-condition checker",
                             parents=[kappa_c, mode, output])
    group = p_check.add_mutually_exclusive_group(required=True)
    group.add_argument("--theorem", choices=THEOREM_NAMES, default=None)
    group.add_argument("--corollary", choices=COROLLARY_IDS, default=None)
    # Optional here: corollaries fix their own pair.
    p_check.add_argument("--A", type=float, default=None, help="region parameter A")
    p_check.add_argument("--B", type=float, default=None, help="region parameter B")
    p_check.set_defaults(handler=_cmd_check)

    p_verify = sub.add_parser("verify", help="sampled membership test",
                              parents=[selector, pair, params, grid, eval_config, output])
    p_verify.set_defaults(handler=_cmd_verify)

    p_radius = sub.add_parser("radius", help="property radius",
                              parents=[selector, pair, params, radius_cap, eval_config, output])
    p_radius.add_argument("--grid-density", type=int, default=256,
                          help="angles per tested circle")
    p_radius.add_argument("--tol", type=float, default=1e-4,
                          help="an infeasible radius is tested at most this far above the result")
    p_radius.set_defaults(handler=_cmd_radius)

    p_scan = sub.add_parser("scan", help="sweep a (kappa, c) rectangle",
                            parents=[selector, pair, grid, eval_config, mode, output])
    p_scan.add_argument("--kappa-range", type=_parse_range, required=True,
                        help="'lo:hi:steps'")
    p_scan.add_argument("--c-range", type=_parse_range, required=True,
                        help="'lo:hi:steps'")
    p_scan.add_argument("--workers", type=int, default=1,
                        help="accepted for compatibility and echoed in the report; has no effect")
    p_scan.add_argument("--format", choices=("json", "csv"), default="json")
    p_scan.set_defaults(handler=_cmd_scan)

    p_adm = sub.add_parser("admissibility", help="supremum of Re Psi",
                           parents=[pair, kappa_c, output])
    p_adm.add_argument("--which", choices=("subordination", "convexity"), required=True)
    p_adm.set_defaults(handler=_cmd_admissibility)

    p_bounds = sub.add_parser("bounds", help="pointwise bounds for i_p",
                              parents=[point, eval_config, output])
    p_bounds.add_argument("--p", type=float, required=True)
    p_bounds.set_defaults(handler=_cmd_bounds)

    return parser


def _cmd_eval(ns: argparse.Namespace) -> tuple[dict, int]:
    params = BesselParams(ns.p, ns.b, ns.c)
    result = eval_u(params, ns.z, order=ns.order, cfg=_eval_config(ns))
    payload = {
        "params": _params_dict(params),
        "z": _complex_list(ns.z),
        "order": ns.order,
        "values": [_complex_list(v) for v in result.values],
        "terms_used": result.terms_used,
        "truncation_estimate": result.truncation_estimate,
    }
    return payload, 0


def _cmd_check(ns: argparse.Namespace) -> tuple[dict, int]:
    if ns.corollary is not None:
        if ns.A is not None or ns.B is not None:
            raise ValueError("corollaries fix their own pair; drop --A/--B")
        check, pair, outcome = ns.corollary, None, check_corollary(ns.corollary, ns.kappa, ns.c)
    else:
        if ns.A is None or ns.B is None:
            raise ValueError("theorem checks need --A and --B")
        pair = JanowskiPair(A=ns.A, B=ns.B)
        check, outcome = ns.theorem, check_theorem(ns.theorem, pair, ns.kappa, ns.c, ns.mode)
    payload = {
        "check": check,
        "pair": None if pair is None else _pair_list(pair),
        "kappa": ns.kappa,
        "c": ns.c,
        "mode": ns.mode if check in MODE_THEOREMS else None,
        "outcome": _outcome_dict(outcome),
    }
    return payload, 0 if outcome.satisfied else 1


def _cmd_verify(ns: argparse.Namespace) -> tuple[dict, int]:
    from .verify import verify_membership

    pair = JanowskiPair(A=ns.A, B=ns.B)
    params = BesselParams(ns.p, ns.b, ns.c)
    report = verify_membership(
        ns.selector, pair, params, grid=_grid_from_flags(ns), cfg=_eval_config(ns)
    )
    return _report_dict(report), 0 if report.verdict == "holds-on-grid" else 1


def _cmd_radius(ns: argparse.Namespace) -> tuple[dict, int]:
    from .verify import property_radius

    pair = JanowskiPair(A=ns.A, B=ns.B)
    params = BesselParams(ns.p, ns.b, ns.c)
    radius = property_radius(
        ns.selector,
        pair,
        params,
        grid_density=ns.grid_density,
        tol=ns.tol,
        max_radius=ns.max_radius,
        cfg=_eval_config(ns),
    )
    payload = {
        "selector": ns.selector,
        "pair": _pair_list(pair),
        "params": _params_dict(params),
        "radius": radius,
        "tol": ns.tol,
        "grid_density": ns.grid_density,
        "max_radius": ns.max_radius,
    }
    return payload, 0 if radius > 0.0 else 1


def _cmd_scan(ns: argparse.Namespace) -> tuple[dict | str, int]:
    if ns.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {ns.workers}")
    from .verify import region_scan, scan_conflicts

    pair = JanowskiPair(A=ns.A, B=ns.B)
    rows = region_scan(
        ns.selector,
        pair,
        ns.kappa_range,
        ns.c_range,
        grid=_grid_from_flags(ns),
        cfg=_eval_config(ns),
        mode=ns.mode,
    )
    conflicts = scan_conflicts(rows)
    code = 1 if conflicts else 0
    if ns.format == "csv":
        sink = io.StringIO()
        emit_scan_csv(rows, sink)
        return sink.getvalue(), code
    payload = {
        "selector": ns.selector,
        "pair": _pair_list(pair),
        "mode": ns.mode,
        "kappa_range": list(ns.kappa_range),
        "c_range": list(ns.c_range),
        "workers": ns.workers,
        "conflicts": len(conflicts),
        "rows": [_row_dict(row) for row in rows],
    }
    return payload, code


def _cmd_admissibility(ns: argparse.Namespace) -> tuple[dict, int]:
    pair = JanowskiPair(A=ns.A, B=ns.B)
    max_re, probe = admissibility_scan(ns.which, pair, ns.kappa, ns.c)
    payload = {
        "which": ns.which,
        "pair": _pair_list(pair),
        "kappa": ns.kappa,
        "c": ns.c,
        "max_re": max_re if math.isfinite(max_re) else None,
        "argmax": {**vars(probe), "z": _complex_list(probe.z)},  # rho, sigma, mu, nu, z
    }
    return payload, 0 if max_re < 0.0 else 1


def _cmd_bounds(ns: argparse.Namespace) -> tuple[dict, int]:
    bounds = mccarty_bounds(ns.p, ns.z, cfg=_eval_config(ns))
    rows = [bounds.modulus, bounds.real_part, bounds.derivative]
    payload = {
        "p": ns.p,
        "z": _complex_list(ns.z),
        "checks": [
            {
                "label": row.label,
                "bound": row.bound,
                "observed": row.observed,
                "holds": row.holds,
            }
            for row in rows
        ],
        "notes": list(bounds.notes),
        "all_hold": bounds.all_hold(),
    }
    return payload, 0 if bounds.all_hold() else 1


def run(argv: list[str] | None = None) -> int:
    """Parse argv, run the verb, emit the report; returns the exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2

    try:
        result, code = ns.handler(ns)
    except (InvalidKappa, NoConvergence, DegenerateDenominator) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    # InvalidKappa is a ValueError too, so this clause must come second.  It
    # also takes ZeroC, UnknownCorollary, OrderOutOfRange and bad flag values.
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if isinstance(result, str):
        text = result
    else:
        envelope = {
            "schema_version": SCHEMA_VERSION,
            "command": {"verb": ns.verb, "argv": argv},
            "timestamp": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
            "payload": result,
        }
        text = json.dumps(envelope, indent=2) + "\n"

    if ns.output is None:
        sys.stdout.write(text)
        return code
    try:
        with open(ns.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
