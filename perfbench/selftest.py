"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

A wrong pinned value must show up in failed_ops_frac, not be ignored.  The
test runs the three samples and the two doubled K4 files (one of them with
B2) in process, four passes through the benchmark's own closed loop and
summary: first with the manifest as committed, where nothing may fail, then
once per pinned field with that field of one file made wrong, where exactly
that file's ops must fail.  It also feeds hand-made bad outputs to the
check.  Prints one line per case and exits 1 if any case goes the wrong way.
"""

import copy
import json
import sys

import common
import run

PINNED = ("contains_b2", "phi3_oracle", "dim_I3_2", "dim_span_F3")
PASSES = 4


def failed_frac(falk3, manifest: dict, names) -> float:
    files = [f for f in manifest["files"] if f["name"] in names]
    ops = [common.compute_op(f) for f in files] * PASSES
    loop = run.closed_loop([ops], run.executor("compute-doubled", falk3, manifest), 0)
    _, detail = run.summarize(loop, 0.0, "compute-doubled")
    return detail["failed_ops_frac"]


def main() -> int:
    common.guard()
    falk3 = common.import_falk3()
    manifest = common.load_manifest()
    common.write_inputs(manifest)
    names = [f["name"] for f in manifest["files"] if "path" in f or f["doubled"]["ell"] == 4]
    misses = []

    def expect(label, ok):
        print(f"{'ok  ' if ok else 'MISS'} {label}")
        if not ok:
            misses.append(label)

    frac = failed_frac(falk3, manifest, names)
    expect(f"committed pins: failed_ops_frac = {frac}", frac == 0)
    for name in (names[0], names[-1]):
        for key in PINNED:
            bad = copy.deepcopy(manifest)
            entry = next(f for f in bad["files"] if f["name"] == name)
            entry[key] = not entry[key] if key == "contains_b2" else entry[key] + 1
            frac = failed_frac(falk3, bad, names)
            expect(f"wrong {key} on {name}: failed_ops_frac = {frac}", frac == 1 / len(names))

    verify = common.verify_op(5, 0)
    expect("verify printing 0/1 fails", common.check(verify, 0, "0/1 graphs agree\n", manifest) is not None)
    expect("verify exiting 2 fails", common.check(verify, 2, common.VERIFY_OK, manifest) is not None)

    entry = manifest["files"][0]
    op = common.compute_op(entry)
    good = {k: entry.get(k) for k in manifest["compute_keys"]}
    good.update(census=dict.fromkeys(manifest["census_keys"], 0), agreement=True)
    expect("correct report passes", common.check(op, 0, json.dumps(good), manifest) is None)
    for label, change in (
        ("extra key", {"stats": {}}),
        ("agreement false", {"agreement": False}),
        ("agreement null on a B2-free file", {"agreement": None}),
        ("census key set", {"census": {"k3": 0}}),
    ):
        report = {**good, **change}
        expect(f"{label} fails", common.check(op, 0, json.dumps(report), manifest) is not None)
    expect("non-JSON output fails", common.check(op, 0, "phi3 17", manifest) is not None)

    print(f"{len(misses)} case(s) went the wrong way" if misses else "self-test passed")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
