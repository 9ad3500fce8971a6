"""Start ``repro serve`` for the benchmark, optionally with wrappers.

    python3 perfbench/serve_launcher.py [--trace --spans FILE] -- \
        serve --workers 2 --port 0 ...

Everything after ``--`` is handed to the ``repro`` command line.  With
``--trace`` the layer wrappers are installed before the server starts,
and when it exits (SIGTERM drain) the span tables and the per-request
``AnalysisEngine.execute`` records are written to ``FILE`` as JSON.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def install_server_wrappers(tracer) -> None:
    """Admission, the engine's tier calls and ``execute`` itself, plus
    the simulation layers that ``simulate`` jobs run."""
    from repro.serve import engine
    from repro.serve.admission import AdmissionController
    from tracer import (counted_certify, install_simulation_wrappers,
                        wrap_function, wrap_methods)

    install_simulation_wrappers(tracer)
    wrap_methods(tracer, AdmissionController, ["admit"], "serve.admit")
    wrap_function(tracer, "repro.serve.engine", "analyze_program",
                  "analysis.taint")
    wrap_function(tracer, "repro.serve.engine", "compute_program_summaries",
                  "analysis.summaries")
    wrap_function(tracer, "repro.serve.engine", "refine_report",
                  "analysis.valueset")
    engine.certify_program = counted_certify(tracer, engine.certify_program)
    execute = engine.AnalysisEngine.execute

    @functools.wraps(execute)
    def traced_execute(self, submission, cancel=None):
        start = time.monotonic()
        result = tracer.call("serve.execute", execute, self, submission,
                             cancel)
        tracer.record("serve.execute", start, time.monotonic(),
                      name=submission.name, tier=submission.tier.value,
                      kind=submission.kind.value)
        return result
    engine.AnalysisEngine.execute = traced_execute


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpu", type=int, default=None,
                        help="pin the server to this CPU")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("repro_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    repro_args = args.repro_args[1:] if args.repro_args[:1] == ["--"] \
        else args.repro_args
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        install_server_wrappers(tracer)
    from repro.cli import main as repro_main

    try:
        return repro_main(repro_args)
    finally:
        if tracer is not None and args.spans:
            tables, counters = tracer.snapshot()
            with open(args.spans, "w") as handle:
                json.dump({"tables": tables, "counters": counters,
                           "records": tracer.records}, handle)


if __name__ == "__main__":
    sys.exit(main())
