"""Launch ``udc gateway`` with default flags, optionally traced.

    python3 perfbench/gateway_child.py [--trace-out SPANS.tsv
                                        --summary-out SUMMARY.json]

Runs ``repro.cli.main(["gateway", "--port", "0"])``: telemetry on, one
cell, 0.05 s ticks, an ephemeral port printed on stdout.  First it
prints ``perfbench-t0`` with the ``time.monotonic()`` reading taken
before the program was imported, where the gateway's set-up starts; the
parent ends set-up once its tenants are registered.  With
``--trace-out`` the program's entry points are wrapped first; when the
gateway shuts down (``POST /v1/shutdown``) the spans are written to
that file and a JSON summary (per-name times, the service's end state,
the process's CPU over the traced window) to ``--summary-out``.
"""

import time

STARTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--summary-out", default=None)
    args = parser.parse_args(argv)
    print(f"perfbench-t0 {STARTED:.9f}", flush=True)

    import repro.cli

    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cpu0 = time.process_time()
    code = repro.cli.main(["gateway", "--port", "0"])
    cpu_s = time.process_time() - cpu0
    if tracer is not None:
        from layers import end_state
        from tracer import summarize

        tracer.uninstall()
        tracer.write_spans(args.trace_out)
        summary = {
            "trace": summarize(tracer),
            "state": end_state(tracer.services[-1]) if tracer.services else {},
            "cpu_s": cpu_s,
        }
        with open(args.summary_out, "w", encoding="utf-8") as out:
            json.dump(summary, out)
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    sys.exit(main())
