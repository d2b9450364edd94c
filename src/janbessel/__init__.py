"""Generalized Bessel-type series and Janowski-class membership tools.

The package has four layers: `bessel` evaluates the series and its
derivatives, `geometry` describes the Janowski target regions, `checks`
evaluates closed-form sufficient conditions for membership, and `verify`
tests the same memberships by sampling the unit disk.  `cli` exposes all of
it as the `janbessel` command.

The names in `__all__` are resolved on first access (PEP 562), so
`import janbessel` loads no submodule and no numpy; `janbessel.verify_membership`
loads `verify`, and with it numpy, only when asked for.
"""

import importlib

__version__ = "0.1.0"

# Each exported name and the submodule that defines it.
_EXPORTS = {
    "bessel": (
        "BesselParams",
        "DEFAULT_CONFIG",
        "EvalConfig",
        "EvalResult",
        "InvalidKappa",
        "NoConvergence",
        "eval_u",
        "eval_u_many",
        "ode_residual",
        "recurrence_residual",
    ),
    "checks": (
        "AdmissibilityProbe",
        "CheckOutcome",
        "COROLLARY_IDS",
        "McCartyBounds",
        "MODE_AS_PRINTED",
        "MODE_CONSERVATIVE",
        "REGIME_SPLIT_B",
        "SELECTORS",
        "UnknownCorollary",
        "ZeroC",
        "admissibility_scan",
        "check_convexity_theorem",
        "check_corollary",
        "check_derivative_theorem",
        "check_starlike_theorem",
        "check_subordination_theorem",
        "eval_psi",
        "mccarty_bounds",
    ),
    "geometry": (
        "DISK",
        "DegenerateDenominator",
        "HALF_PLANE",
        "JanowskiPair",
        "OrderOutOfRange",
        "TargetRegion",
        "mobius",
        "pair_from_order",
        "region_margin",
        "region_margin_many",
        "target_region",
    ),
    "verify": (
        "SampleGrid",
        "ScanRow",
        "VerificationReport",
        "property_radius",
        "region_scan",
        "scan_conflicts",
        "verify_membership",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    # Not cached in the package namespace: a name rebound in its submodule
    # (as the benchmark's tracer does) is seen here too.
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
