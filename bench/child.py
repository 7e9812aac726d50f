"""One timed risdeploy command in a fresh interpreter.

Usage: python3 bench/child.py --result OUT.json [--spans SPANS.npz] -- <risdeploy args>

The clock starts before ``import risdeploy`` and stops when ``cli.main``
returns. ``cli.build_context`` is timed on every call (the benchmark's
set-up time). With ``--spans`` the layers' public functions are traced and
the spans are written to that file; the result then also holds the span
summary. The result file is JSON: exit code, plan_s, setup_s and its call
count, import time and the process's peak resident set size.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    sys.path.insert(0, str(SRC))

    t_import = time.perf_counter()
    from risdeploy import cli
    import_s = time.perf_counter() - t_import
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"risdeploy imported from {cli.__file__}, not from {SRC}")

    setup = {"calls": 0, "s": 0.0}
    build_context = cli.build_context

    def timed_build_context(*a, **kw):
        t0 = time.perf_counter()
        try:
            return build_context(*a, **kw)
        finally:
            setup["s"] += time.perf_counter() - t0
            setup["calls"] += 1

    cli.build_context = timed_build_context
    tracer = None
    if args.spans:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()

    code = cli.main(argv)
    plan_s = time.perf_counter() - T_START
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {"exit_code": code, "plan_s": plan_s, "setup_s": setup["s"],
           "build_context_calls": setup["calls"], "import_s": import_s,
           "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        tracer.write(args.spans)
        out["trace"] = tracer.summary()
    with open(args.result, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
