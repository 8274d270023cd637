"""Run one ``bellwigner`` invocation with its layers traced.

Usage: python3 bench/cli_traced.py SPANS_PATH [bellwigner arguments...]

Behaves like the ``bellwigner`` entry point: same stdout, stderr and exit
status. It also times the numpy import and the package import, wraps the
package's layers with :mod:`spans`, and on exit writes the spans and counts
to SPANS_PATH as JSON, with ``t0_ns``: the monotonic time at which this
script started, after interpreter start-up.
"""

import time

T0_NS = time.perf_counter_ns()

import sys  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter_ns()
    import numpy  # noqa: F401
    numpy_span = ("import", start, time.perf_counter_ns(), -1)
    start = time.perf_counter_ns()
    import bellwigner.cli
    package_span = ("import", start, time.perf_counter_ns(), -1)

    # Imported after the package, which already loaded what this needs.
    import json
    from spans import Tracer

    tracer = Tracer(spans=[numpy_span, package_span])
    restore = tracer.install(with_cli=True)
    try:
        status = tracer.span("cli", bellwigner.cli.main)(argv)
    finally:
        restore()
        sys.stdout.flush()
    tracer.counts["chsh.tables_distinct"] = len(tracer.joint_keys)
    with open(spans_path, "w") as out:
        json.dump({"t0_ns": T0_NS, "end_ns": time.perf_counter_ns(), "spans": tracer.spans,
                   "counts": tracer.counts}, out)
    return status


if __name__ == "__main__":
    sys.exit(main())
