"""One benchmark workload, run in its own process.

Each op is one in-process CLI invocation through ``overpart.cli.main``,
started from cold package caches because every real CLI run is a fresh
process.  Ops run back to back (a closed loop with one client) until the
time budget is spent; between two ops, outside their timing, an untraced
run times one fresh interpreter start and the calibration loops of
calib.py.  Every op's output is checked for content, outside the timed
region, against answers pinned as digests so the reference data costs no
memory.

Run by run.py; prints one JSON document on its last stdout line:

    python3 perfbench/worker.py --workload scan-wide --seconds 5 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, NamedTuple

import calib
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# verify all: every suite of `verify all` reports once, 152 reports in all
VERIFY_REPORTS = 152
# sha256 of the 5001 exact coefficients pbar(0..5000), one per line, from
# tests/oracles.pbar_by_recurrence(5000)
GEN_DIGEST = "64b84fe81301e45589fd4d40f69578304558ab577fbc0c6d564bd728cebc544d"
# sha256 of the sorted scan hits as "A,B,M,checks" lines, one per hit
SCAN_HITS = 9591
SCAN_DIGEST = "78cb2cce461f8ff6ac7d89473e33aa91e1c50332cd99046f9f521c055c6a7eb5"


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def check_verify(code, out: str) -> str | None:
    """None when the op passed, else why it failed."""
    if code != 0:
        return f"exit code {code}, expected 0"
    reports = json.loads(out)
    if len(reports) != VERIFY_REPORTS:
        return f"{len(reports)} reports, expected {VERIFY_REPORTS}"
    bad = [r for r in reports if r["status"] != "Verified"]
    if bad:
        return f"{len(bad)} reports not Verified, first: {bad[0]}"
    return None


def check_gen(code, out: str) -> str | None:
    if code != 0:
        return f"exit code {code}, expected 0"
    rows = [line.split(",") for line in out.splitlines()[1:]]
    if [int(n) for n, _ in rows] != list(range(5001)):
        return "rows are not n = 0..5000"
    if _digest(v for _, v in rows) != GEN_DIGEST:
        return "coefficients differ from the pbar oracle"
    return None


def check_scan(code, out: str) -> str | None:
    if code != 0:
        return f"exit code {code}, expected 0"
    hits = sorted((h["claim"]["A"], h["claim"]["B"], h["claim"]["M"], h["checks"])
                  for h in json.loads(out))
    if len(hits) != SCAN_HITS:
        return f"{len(hits)} scan hits, expected {SCAN_HITS}"
    if _digest("%d,%d,%d,%d" % h for h in hits) != SCAN_DIGEST:
        return "scan hit set differs from the pinned one"
    return None


class Workload(NamedTuple):
    argv: list[str]
    check: Callable[[object, str], str | None]
    # share of the op's time in series.mul (the traced run's series.mul.s
    # over its op time); weights the bigint calibration loop of calib.py
    # against the interpreter loop when op times are normalised
    bigint_share: float


WORKLOADS = {
    "verify-invert": Workload(["verify", "all", "--limit", "10000"], check_verify, 0.25),
    "verify-2adic": Workload(
        ["verify", "all", "--limit", "1500", "--source", "2adic:31"], check_verify, 0.9),
    "gen-product": Workload(
        ["gen", "--limit", "5000", "--exact", "--source", "product"], check_gen, 0.2),
    "scan-wide": Workload(
        ["scan", "--amax", "128", "--mods", "4,8,16,32,64,128", "--limit", "20000"],
        check_scan, 0.0),
}


# setup_s: a fresh interpreter imports the package and builds the CLI parser
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import overpart.cli; overpart.cli.build_parser()")
SETUP_MIN_RUNS = 11
# calibration loops (calib.py) run after each op for this share of its time
PROBE_SHARE = 0.6


def time_setup() -> float:
    t0 = time.perf_counter()
    # output is captured: waiting on the pipe sees the exit at once, where a
    # bare wait with a timeout polls in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], check=True,
                   cwd=ROOT, timeout=60, capture_output=True)
    return time.perf_counter() - t0


def load_package():
    """Import overpart from this checkout's src/, ahead of any installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import overpart.cli  # noqa: F401  (binds overpart.cli and its modules)
    import overpart
    return overpart


def _clear_package_caches():
    for name, mod in list(sys.modules.items()):
        if name == "overpart" or name.startswith("overpart."):
            for obj in list(vars(mod).values()):
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


class Op(NamedTuple):
    seconds: float
    traced: bool
    error: str | None


def run_ops(workload: Workload, seconds: float, tracer=None, main=None,
            between=None) -> list[Op]:
    """Run ops back to back until `seconds` have passed; at least one op,
    and with a tracer at least one untraced and one traced op, alternating.

    main replaces overpart.cli.main (tests feed corrupted output through it);
    by default it is looked up per op, so a tracer's wrapper is the one called.
    between, if given, is called with each op after it, outside its timing.
    """
    pkg = load_package()
    ops = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds or (
            tracer is not None and len(ops) < 2):
        traced = tracer is not None and len(ops) % 2 == 1
        _clear_package_caches()
        out, err = io.StringIO(), io.StringIO()
        if traced:
            tracer.install(len(ops))
        call = main or pkg.cli.main
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = call(list(workload.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = "exception:\n" + traceback.format_exc()
        dt = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
            tracer.add_count("cli.out_bytes", len(out.getvalue().encode()))
        try:
            error = workload.check(code, out.getvalue())
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            error = f"unreadable output: {exc!r}"
        ops.append(Op(dt, traced, error))
        if between:
            between(ops[-1])
    return ops


def error_rate(ops: list[Op]) -> float:
    return sum(op.error is not None for op in ops) / len(ops)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file", help="where the traced run writes its spans")
    args = parser.parse_args(argv)

    tracer = None
    setup, probes = [], []

    def calibrate(seconds):
        # at least one pass of the calibration loops, then more until
        # `seconds` have passed
        t0 = time.perf_counter()
        probes.append(calib.probe())
        while time.perf_counter() - t0 < seconds:
            probes.append(calib.probe())

    def between(op):
        setup.append(time_setup())
        calibrate(PROBE_SHARE * op.seconds)

    if args.trace:
        tracer = spans.Tracer(load_package())
        ops = run_ops(WORKLOADS[args.workload], args.seconds, tracer)
    else:
        # one untimed start leaves the bytecode cache warm, as an installed
        # package has it, and one untimed pass warms the calibration loops;
        # the timed starts and loops are spread between the ops so they see
        # the same host load as the ops do
        time_setup()
        calib.probe()
        calibrate(0)
        ops = run_ops(WORKLOADS[args.workload], args.seconds, between=between)
        while len(setup) < SETUP_MIN_RUNS:
            setup.append(time_setup())
    for op in ops:
        if op.error:
            print(f"{args.workload}: op failed: {op.error}", file=sys.stderr)
    result = {
        "op_s": [op.seconds for op in ops if not op.traced],
        "traced_op_s": [op.seconds for op in ops if op.traced],
        "setup_s": setup,
        "probe_s": [list(p) for p in probes],
        "failed": sum(op.error is not None for op in ops),
        "attempted": len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        result["layers"] = tracer.layer_means()
        result["unwrapped"] = tracer.missing
        if args.trace_file:
            tracer.write(args.trace_file, {"workload": args.workload,
                                           "argv": WORKLOADS[args.workload].argv})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
