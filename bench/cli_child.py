"""Traced stand-in for `python -m janbessel.cli`, used by the traced cli workload.

Runs `janbessel.cli.run(argv)` exactly as the module entry point does, with
the tracer's wrappers installed, and reports its spans as one JSON line on
stderr after the CLI's own output.  The package comes from PYTHONPATH, as
for the untraced run.  The first statement reads the clock, so
the parent can attribute the time from spawn to here to interpreter start.
"""

import time

START_NS = time.perf_counter_ns()

import sys  # noqa: E402  (loaded by interpreter start-up already)


def main():
    import_start = time.perf_counter_ns()
    import janbessel.cli

    import_end = time.perf_counter_ns()
    import json

    import tracer as tr

    trace = tr.Tracer()
    trace.spans.append(["cli.import", import_start, import_end, -1, None])
    restore, absent = tr.patch(tr.TARGETS, trace.wrap)
    try:
        with trace.span("cli.run"):
            code = janbessel.cli.run(sys.argv[1:])
    finally:
        restore()
    sys.stdout.flush()
    report = {"start_ns": START_NS, "spans": trace.spans, "absent": absent}
    sys.stderr.write(tr.TRACE_MARK + json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
