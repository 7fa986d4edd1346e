"""Child processes of the benchmark.

    python3 perfbench/child.py setup
        Import falk3 from the checkout, write the generated input files and
        run one warm-up `compute --json` on the smallest sample.  The parent
        times this whole process as one set-up.

    python3 perfbench/child.py op <falk3 arguments...>
        One traced CLI op: time `import falk3`, install the span wrappers,
        call falk3.cli.main, then print the span totals to stderr as the
        last line, after TRACE_MARK.  Exits with main's status.
"""

import json
import sys
from time import perf_counter

import common


def setup() -> int:
    falk3 = common.import_falk3()
    manifest = common.load_manifest()
    common.write_inputs(manifest)
    warm = common.compute_op(manifest["files"][manifest["warmup"]])
    _, rc, out = common.run_inprocess(falk3, warm.argv)
    reason = common.check(warm, rc, out, manifest)
    if reason is not None:
        print(f"warm-up op failed: {reason}", file=sys.stderr)
        return 1
    return 0


def traced_op(argv) -> int:
    t0 = perf_counter()
    falk3 = common.import_falk3()
    import_ms = (perf_counter() - t0) * 1e3

    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    rc = falk3.cli.main(argv)
    totals = tracer.snapshot()
    totals["import.falk3_ms"] = import_ms
    sys.stdout.flush()
    print(common.TRACE_MARK + json.dumps(totals), file=sys.stderr)
    return rc


def main(argv) -> int:
    common.guard()
    if argv[:1] == ["setup"]:
        return setup()
    if argv[:1] == ["op"]:
        return traced_op(argv[1:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
