"""Paths, inputs, op execution and output checks shared by the benchmark scripts."""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
INPUTS = OUT / "inputs"
MANIFEST = HERE / "manifest.json"

# Environment knobs that select a non-default rank pipeline.
REFUSED_ENV = ("FALK_RANK_BACKEND", "FALK_NUMBA")

VERIFY_OK = "1/1 graphs agree\n"
CHILD_TIMEOUT_S = 120.0
TRACE_MARK = "PERFBENCH-TRACE "


class BenchError(Exception):
    """The benchmark cannot run here; nothing is measured."""


def guard() -> None:
    """Refuse to measure anything but the default pipeline of this checkout.

    On success the working directory is the checkout root, which op
    arguments are relative to.
    """
    for var in REFUSED_ENV:
        if var in os.environ:
            raise BenchError(f"{var} is set; unset it so the default rank pipeline is measured")
    if not (SRC / "falk3" / "__init__.py").is_file():
        raise BenchError(f"no falk3 package under {SRC}; run from the root of a falk3 checkout")
    os.chdir(ROOT)


def import_falk3():
    """Import falk3 from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import falk3
    import falk3.cli

    if Path(falk3.__file__).resolve().parent != (SRC / "falk3").resolve():
        raise BenchError(f"falk3 resolved to {falk3.__file__}, not to {SRC}")
    return falk3


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def load_manifest() -> dict:
    with open(MANIFEST, encoding="utf-8") as fh:
        return json.load(fh)


# -- inputs --------------------------------------------------------------------


def doubled_text(ell: int, loops) -> str:
    """Graph file for the complete graph with both signs on every pair, plus loops."""
    pairs = list(itertools.combinations(range(1, ell + 1), 2))
    lines = [f"vertices {ell}"]
    lines += [f"+ {i} {j}" for i, j in pairs]
    lines += [f"- {i} {j}" for i, j in pairs]
    lines += [f"o {v}" for v in sorted(loops)]
    return "\n".join(lines) + "\n"


def input_path(entry: dict) -> Path:
    """Where an input file lives, relative to the checkout root (the working directory)."""
    if "path" in entry:
        return Path(entry["path"])
    return (INPUTS / f"{entry['name']}.graph").relative_to(ROOT)


def write_inputs(manifest: dict) -> None:
    """Write the generated graph files of the manifest; samples are read in place."""
    INPUTS.mkdir(parents=True, exist_ok=True)
    for entry in manifest["files"]:
        if "doubled" in entry:
            spec = entry["doubled"]
            text = doubled_text(spec["ell"], spec["loops"])
            path = ROOT / input_path(entry)
            if not path.is_file() or path.read_text(encoding="utf-8") != text:
                path.write_text(text, encoding="utf-8")


# -- ops ---------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its output must be.

    `pin` is the manifest entry of a `compute --json` input; None marks a
    `verify` op, whose only correct output is VERIFY_OK.
    """

    argv: tuple[str, ...]
    pin: dict | None = None


def verify_op(ell: int, seed: int) -> Op:
    return Op(("verify", "--vertices", str(ell), "--samples", "1", "--seed", str(seed)))


def compute_op(entry: dict) -> Op:
    return Op(("compute", "--json", str(input_path(entry))), entry)


def check(op: Op, rc, out: str, manifest: dict) -> str | None:
    """None when the output is correct, else the reason the op failed."""
    if rc != 0:
        return f"exit status {rc!r}"
    if op.pin is None:
        return None if out == VERIFY_OK else f"printed {out!r}"
    try:
        report = json.loads(out)
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    if not isinstance(report, dict) or sorted(report) != sorted(manifest["compute_keys"]):
        return "JSON key set differs from the compute --json contract"
    cen = report["census"]
    if cen is not None and sorted(cen) != sorted(manifest["census_keys"]):
        return "census key set differs from the contract"
    want_agreement = None if op.pin["contains_b2"] else True
    if report["agreement"] is not want_agreement:
        return f"agreement is {report['agreement']!r}, expected {want_agreement!r}"
    for key in ("contains_b2", "phi3_oracle", "dim_I3_2", "dim_span_F3"):
        if report[key] != op.pin[key]:
            return f"{key} = {report[key]!r}, pinned {op.pin[key]!r}"
    return None


def run_inprocess(falk3, argv, tracer=None):
    """Call falk3.cli.main in this process; returns (seconds, exit status, stdout).

    The entry point is looked up on the module at call time, so a traced run
    sees its wrapper.  An exception counts as the op's exit status.
    """
    buf = io.StringIO()

    def call():
        return falk3.cli.main(list(argv))

    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = tracer.op(call) if tracer is not None else call()
    except (Exception, SystemExit) as exc:
        rc = f"raised {exc!r}"
    return perf_counter() - t0, rc, buf.getvalue()


def run_child(cmd):
    """Run one child process to completion.

    Returns (seconds, exit status, stdout, stderr, peak RSS in KiB of that
    child).  The child is reaped with wait4 so its own peak memory is known;
    a watchdog kills it after CHILD_TIMEOUT_S.
    """
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as fout, tempfile.TemporaryFile(dir=OUT) as ferr:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=fout, stderr=ferr)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        seconds = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        fout.seek(0)
        ferr.seek(0)
        out = fout.read().decode("utf-8", "replace")
        err = ferr.read().decode("utf-8", "replace")
    return seconds, proc.returncode, out, err, usage.ru_maxrss
