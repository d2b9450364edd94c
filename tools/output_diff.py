"""Compare the outputs of two checkouts on the benchmark workloads, field by field.

    python3 tools/output_diff.py PARENT_DIR CHANGE_DIR 101 102 103

For each seed, runs one batch of the `Sweep`, `Pointwise`, `Dense` and
`Cli` workloads of `bench/workloads.py` from each checkout, in a child
process that imports that checkout's `src/` and `bench/`, and prints per
seed and workload:

  * verdicts that changed (verification reports, scan cells, CLI reports,
    checker outcomes and whether all pointwise bounds hold);
  * how many `min_margin` values are bit-equal, and the largest |change|;
  * how many scalar results (series values, residuals, Psi values, checker
    slacks, each scan cell's checker and corollary slacks, pointwise bounds
    and observed sides) are bit-equal, and the largest |change|; a result
    that moved by more than 1e-12 relative is listed;
  * witnesses that moved, each marked "mirror" (to within 1e-15 of the
    conj of the old witness), "real-axis" (within 1e-15 of the old witness,
    with one of the two exactly real), "tie" (any other move whose
    `min_margin` is bit-equal: another sample attains the same least
    margin) or "other";
  * property radii that changed, with the largest |change| (to read
    against the search's `tol`), and admissibility maxima that changed
    (maxima that became unbounded, +inf or null, and maxima whose sign
    flipped are counted apart and left out of the largest |change|), and
    admissibility probes that moved, marked "last-bit" (every coordinate
    within 1e-12 relative and z within 1e-15), "mirror" (rho to -rho and z
    to within 1e-15 of conj z, the rest as for last-bit) or "other";
  * any other output field that changed (checker outcomes, degeneracy
    counts, exit codes, the rest of each CLI payload, term counts and
    truncation estimates, checker and scan-cell branches, slack labels and
    notes).

Every change is listed after the counts, tie moves included, except
mirror and real-axis witness moves, last-bit or mirror probe moves and
scalar results that moved by at most 1e-12 relative, which are only
counted.  Pointwise ops are keyed by their arguments and keyword arguments
(a checker's `mode`, an `eval_u` `order`).  The exit status is 0 when every
item of every seed and workload is bit-identical, 1 when any item differs
(last-bit and tie moves included) and 2 on a usage error.  The script only reads the two checkouts; it changes
nothing in them.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

NAMES = ("Sweep", "Pointwise", "Dense", "Cli")
# Witness moves this small (|z| <= 1) are last-bit moves, not new points.
MOVE_TOL = 1e-15
# Probe coordinates this close, relative, come from the same grid point;
# scalar results this close are last-bit moves.
PROBE_TOL = 1e-12
REPORT_FIELDS = ("verdict", "min_margin", "witness")


# ------------------------------------------------------------------ child


def _complex(z):
    return None if z is None else [z.real, z.imag]


def _sweep_records(workload, out):
    records = []
    for s, rows in enumerate(out):
        if isinstance(rows, Exception):
            records.append({"key": f"scan {s}", "rest": repr(rows)})
            continue
        for i, r in enumerate(rows):
            outcomes = [r.checker] if r.corollary is None else [r.checker, r.corollary]
            records.append({
                "key": f"scan {s} ({workload.scans[s][0]}) kappa={r.kappa!r} c={r.c!r}",
                "verdict": r.report.verdict,
                "min_margin": r.report.min_margin,
                "witness": _complex(r.report.witness),
                "values": [value for outcome in outcomes for _, value in outcome.slacks],
                "rest": repr([r.corollary_id] + [
                    (o.satisfied, o.branch, [label for label, _ in o.slacks], o.notes,
                     o.implied_pair, o.conclusion_bound) for o in outcomes
                ]),
            })
    return records


def _flat(zs):
    return [x for z in zs for x in (z.real, z.imag)]


def _pointwise_records(workload, out):
    from janbessel.bessel import EvalResult
    from janbessel.checks import CheckOutcome, McCartyBounds

    records = []
    for index, ((kind, _, args, kwargs), result) in enumerate(zip(workload.ops, out)):
        record = {"key": f"op {index} {kind}{args!r}" + (f" {kwargs!r}" if kwargs else "")}
        if isinstance(result, Exception):
            record["rest"] = repr(result)
        elif isinstance(result, EvalResult):
            record["values"] = _flat(result.values)
            record["rest"] = repr((result.terms_used, result.truncation_estimate))
        elif isinstance(result, CheckOutcome):
            record["verdict"] = "satisfied" if result.satisfied else "not satisfied"
            record["values"] = [value for _, value in result.slacks]
            record["rest"] = repr((result.branch, [label for label, _ in result.slacks],
                                   result.notes, result.implied_pair, result.conclusion_bound))
        elif isinstance(result, McCartyBounds):
            rows = (result.modulus, result.real_part, result.derivative)
            record["verdict"] = "all hold" if result.all_hold() else "a bound fails"
            record["values"] = [x for row in rows for x in (row.bound, row.observed)]
            record["rest"] = repr(([(row.label, row.holds) for row in rows], result.notes))
        else:  # a residual or a Psi value
            record["values"] = _flat([complex(result)])
        records.append(record)
    return records


def _dense_records(workload, out, ops):
    records = []
    for index, result in enumerate(out):
        selector, pair, params = workload.tuples[index // len(ops)]
        key = f"{ops[index % len(ops)]} {selector} A={pair.A!r} B={pair.B!r} " \
              f"kappa={params.kappa!r} c={params.c!r}"
        if isinstance(result, Exception):
            records.append({"key": key, "rest": repr(result)})
        elif isinstance(result, float):
            records.append({"key": key, "radius": result})
        elif isinstance(result, tuple):
            probe = result[1]
            records.append({"key": key, "max_re": result[0],
                            "probe": [probe.rho, probe.sigma, probe.mu, probe.nu, _complex(probe.z)]})
        else:
            records.append({"key": key, "verdict": result.verdict, "min_margin": result.min_margin,
                            "witness": _complex(result.witness),
                            "rest": f"hits={len(result.degeneracy_hits)}"})
    return records


def _cli_records(workload, out, strip):
    records = []
    for argv, result in zip(workload.argvs, out):
        key = " ".join(argv[:3])
        if isinstance(result, Exception):
            records.append({"key": key, "rest": repr(result)})
            continue
        code, text = result
        doc = strip(text)
        if not isinstance(doc, dict):  # scan --format csv
            lines = text.splitlines()
            records.append({"key": key, "rest": f"exit {code} {lines[:1]}"})
            for line in lines[1:]:
                f = line.split(",")
                records.append({"key": f"{key} kappa={f[0]} c={f[1]}", "verdict": f[5],
                                "min_margin": float(f[6]),
                                "witness": [float(f[7]), float(f[8])], "rest": f[2:5]})
            continue
        payload = doc.get("payload", {})
        rows = payload.pop("rows", None)
        record = {"key": key}
        if "verdict" in payload:
            record.update({k: payload.pop(k) for k in REPORT_FIELDS})
        elif "radius" in payload:
            record["radius"] = payload.pop("radius")
        elif "max_re" in payload:
            record["max_re"] = payload.pop("max_re")
            probe = payload.pop("argmax")
            record["probe"] = [probe[k] for k in ("rho", "sigma", "mu", "nu", "z")]
        record["rest"] = json.dumps([code, doc], sort_keys=True)
        records.append(record)
        for row in rows or []:
            records.append({"key": f"{key} kappa={row['kappa']!r} c={row['c']!r}",
                            "verdict": row.pop("numeric"), "min_margin": row.pop("min_margin"),
                            "witness": row.pop("witness"), "rest": json.dumps(row, sort_keys=True)})
    return records


def dump(checkout, seed):
    """Print one JSON line per workload: its name and its output records."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    import workloads

    for name in NAMES:
        workload = getattr(workloads, name)(seed)
        out = workload.run_batch(None)
        if name == "Sweep":
            records = _sweep_records(workload, out)
        elif name == "Pointwise":
            records = _pointwise_records(workload, out)
        elif name == "Dense":
            records = _dense_records(workload, out, workloads.DENSE_OPS)
        else:
            records = _cli_records(workload, out, workloads._strip_timestamp)
        print(json.dumps([name, records]), flush=True)


# ----------------------------------------------------------------- parent


def _bits(x):
    return None if x is None else float(x).hex()


def _point_bits(z):
    return None if z is None else [_bits(x) for x in z]


def _move(old, new):
    """How a witness moved: "mirror", "real-axis" or "other"."""
    if old is None or new is None:
        return "other"
    old, new = complex(*old), complex(*new)
    if abs(new - old) <= MOVE_TOL and (old.imag == 0.0 or new.imag == 0.0):
        return "real-axis"
    if abs(new - old.conjugate()) <= MOVE_TOL:
        return "mirror"
    return "other"


def _probe_move(old, new):
    """How an admissibility probe moved: "last-bit", "mirror" or "other".

    Psi at (rho, z) and at (-rho, conj z) are conjugates, so a mirror move
    keeps Re Psi: rho changes sign, sigma and mu follow to within PROBE_TOL
    relative, and z moves to within MOVE_TOL of conj z.
    """
    def close(x, y):
        return abs(x - y) <= PROBE_TOL * max(1.0, abs(x))

    (rho, sigma, mu, nu, z), (rho2, sigma2, mu2, nu2, z2) = old, new
    if not (close(sigma, sigma2) and close(mu, mu2) and nu == nu2):
        return "other"
    z, z2 = complex(*z), complex(*z2)
    if close(rho, rho2) and abs(z2 - z) <= MOVE_TOL:
        return "last-bit"
    if close(-rho, rho2) and abs(z2 - z.conjugate()) <= MOVE_TOL:
        return "mirror"
    return "other"


def compare(parent, change):
    """Report lines for one seed and workload, and whether any item differs."""
    if [r["key"] for r in parent] != [r["key"] for r in change]:
        return ["  the two checkouts ran different items; nothing compared"], True
    n = dict.fromkeys(("verdicts", "margins", "margins equal", "values", "values equal",
                       "witnesses", "mirror", "real-axis", "tie", "radii", "radii changed", "maxima",
                       "maxima changed", "maxima unbounded", "maxima sign flipped", "probes moved",
                       "probe last-bit", "probe mirror", "other fields"), 0)
    margin_delta = value_delta = max_delta = radius_delta = 0.0
    details = []
    for p, c in zip(parent, change):
        key = p["key"]
        if p.get("verdict") != c.get("verdict"):
            n["verdicts"] += 1
            details.append(f"  verdict {key}: {p.get('verdict')} -> {c.get('verdict')}")
        if "min_margin" in p:
            n["margins"] += 1
            a, b = p["min_margin"], c["min_margin"]
            if _bits(a) == _bits(b):
                n["margins equal"] += 1
            elif math.isfinite(a) and math.isfinite(b):
                margin_delta = max(margin_delta, abs(a - b))
        if "values" in p:
            n["values"] += 1
            a, b = p["values"], c.get("values", [])
            if _point_bits(a) == _point_bits(b):
                n["values equal"] += 1
            elif len(a) == len(b) and all(map(math.isfinite, a + b)):
                delta = max(abs(x - y) for x, y in zip(a, b))
                value_delta = max(value_delta, delta)
                if delta > PROBE_TOL * max([1.0, *map(abs, a)]):
                    details.append(f"  values {key}: {a} -> {b}")
            else:
                details.append(f"  values {key}: {a} -> {b}")
        if _point_bits(p.get("witness")) != _point_bits(c.get("witness")):
            n["witnesses"] += 1
            kind = _move(p.get("witness"), c.get("witness"))
            if kind == "other" and "min_margin" in p and _bits(p["min_margin"]) == _bits(c.get("min_margin")):
                kind = "tie"
            if kind in ("other", "tie"):
                details.append(f"  witness {key} ({kind}): {p.get('witness')} -> {c.get('witness')} "
                               f"(min_margin {p.get('min_margin')!r} -> {c.get('min_margin')!r})")
            if kind != "other":
                n[kind] += 1
        if "radius" in p:
            n["radii"] += 1
            if _bits(p["radius"]) != _bits(c["radius"]):
                n["radii changed"] += 1
                radius_delta = max(radius_delta, abs(p["radius"] - c["radius"]))
                details.append(f"  radius {key}: {p['radius']!r} -> {c['radius']!r}")
        if "max_re" in p:
            n["maxima"] += 1
            a, b = p["max_re"], c["max_re"]
            if _bits(a) != _bits(b):
                n["maxima changed"] += 1
                details.append(f"  admissibility max {key}: {a!r} -> {b!r}")
                # An unbounded maximum is +inf in the library and null in
                # the CLI's JSON; neither has a finite |change|.
                if b is None or not math.isfinite(b):
                    n["maxima unbounded"] += 1
                elif a is None or not math.isfinite(a):
                    pass
                elif (a < 0.0) != (b < 0.0):
                    n["maxima sign flipped"] += 1
                else:
                    max_delta = max(max_delta, abs(a - b))
            if json.dumps(p["probe"]) != json.dumps(c["probe"]):
                n["probes moved"] += 1
                kind = _probe_move(p["probe"], c["probe"])
                if kind != "other":
                    n["probe " + kind] += 1
                else:
                    details.append(f"  admissibility probe {key}: {p['probe']} -> {c['probe']}")
        if p.get("rest") != c.get("rest"):
            n["other fields"] += 1
            details.append(f"  other {key}: {p.get('rest')} -> {c.get('rest')}")
    differs = bool(n["verdicts"] or n["witnesses"] or n["radii changed"] or n["maxima changed"]
                   or n["probes moved"] or n["other fields"] or n["margins"] != n["margins equal"]
                   or n["values"] != n["values equal"])
    return [
        f"  verdicts changed {n['verdicts']}",
        f"  min_margin bit-equal {n['margins equal']}/{n['margins']}, "
        f"largest |change| {margin_delta:.3g}",
        f"  scalar results bit-equal {n['values equal']}/{n['values']}, "
        f"largest |change| {value_delta:.3g}",
        f"  witnesses moved {n['witnesses']} (mirror {n['mirror']}, real-axis {n['real-axis']}, "
        f"tie {n['tie']}, other {n['witnesses'] - n['mirror'] - n['real-axis'] - n['tie']})",
        f"  radii changed {n['radii changed']}/{n['radii']}, largest |change| {radius_delta:.3g}",
        f"  admissibility maxima changed {n['maxima changed']}/{n['maxima']} (became +inf or "
        f"null {n['maxima unbounded']}, sign flipped {n['maxima sign flipped']}), largest "
        f"|change| of the rest {max_delta:.3g}; probes moved {n['probes moved']} "
        f"(last-bit {n['probe last-bit']}, mirror {n['probe mirror']}, other "
        f"{n['probes moved'] - n['probe last-bit'] - n['probe mirror']})",
        f"  other fields changed {n['other fields']}",
    ] + details, differs


def run(checkout, seed):
    out = subprocess.run([sys.executable, __file__, "--dump", str(checkout), str(seed)],
                         capture_output=True, text=True, check=False)
    if out.returncode != 0:
        raise SystemExit(f"dumping seed {seed} from {checkout} failed:\n{out.stderr}")
    return dict(json.loads(line) for line in out.stdout.splitlines())


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--dump":
        dump(Path(argv[1]).resolve(), int(argv[2]))
        return 0
    if len(argv) < 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent, change = (Path(arg).resolve() for arg in argv[:2])
    for side in (parent, change):
        if not (side / "bench" / "workloads.py").is_file():
            print(f"no bench/workloads.py under {side}", file=sys.stderr)
            return 2
    status = 0
    for seed in (int(arg) for arg in argv[2:]):
        before, after = run(parent, seed), run(change, seed)
        for name in NAMES:
            print(f"{seed} {name}: {len(before[name])} items", flush=True)
            lines, differs = compare(before[name], after[name])
            for line in lines:
                print(line, flush=True)
            status |= differs
    print("outputs differ" if status else "all outputs bit-identical", flush=True)
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
