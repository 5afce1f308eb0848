"""overpart's benchmark: CLI latency on fixed workloads, with per-layer spans.

    python3 perfbench/run.py --workload verify-invert --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28 --trace 0

Each workload runs in its own child process (worker.py), one at a time,
so its peak memory belongs to it alone.  With --trace 0 the run reports
the end-to-end metrics, its times divided by the host's slowdown that the
calibration loops of calib.py measured between the ops; with --trace 1 it
alternates untraced and traced ops and reports the per-layer metrics of
spans.py plus the tracing overhead.  The workload inputs are fixed mathematical windows with pinned
answers: the seed is recorded with each result and changes no input.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it state every metric with its unit
and sample count.  A record of each run, and the spans of a traced run,
are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import calib
import spans
import worker

HERE = Path(__file__).resolve().parent
ROOT, SRC = worker.ROOT, worker.SRC
OUT = HERE / "out"

# a child gets this long beyond its time budget before it is killed
CHILD_GRACE_S = 100


def run_worker(workload: str, seconds: float, trace: int, trace_file: Path) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-file", str(trace_file)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=seconds + CHILD_GRACE_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int, env: dict):
    """(attempted, failed, metrics) of one workload; prints the summary."""
    trace_file = OUT / f"trace-{workload}-seed{seed}.json"
    res = run_worker(workload, seconds, trace, trace_file)
    ops = res["op_s"]
    lines = [f"{workload}: seed={seed} trace={trace} python={env['python']} "
             f"nproc={env['nproc']}"]
    if trace:
        traced = res["traced_op_s"]
        values = dict(res["layers"])
        values["trace.op_s_mean"] = statistics.mean(traced)
        values["trace.overhead"] = statistics.mean(traced) / statistics.mean(ops) - 1
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spans.per_layer_spec()}
        lines += [f"  {name:<30} {m['value']:<14.6g} {m['unit']}"
                  for name, m in metrics.items()]
        lines.append(f"  layer values: mean over n={len(traced)} traced ops;"
                     f" counts repeat in every op")
        lines.append(f"  tracing overhead: mean traced op {statistics.mean(traced):.4f} s "
                     f"(n={len(traced)}) vs untraced {statistics.mean(ops):.4f} s "
                     f"(n={len(ops)})")
        if res["unwrapped"]:
            lines.append(f"  not in the package, reported as 0: {res['unwrapped']}")
    else:
        # how many times slower than calib.REFERENCE the host ran the
        # calibration loops between this run's ops
        slowdown = calib.slowdown([calib.Probe(*p) for p in res["probe_s"]],
                                  worker.WORKLOADS[workload].bigint_share)
        op_norm = statistics.mean(ops) / slowdown
        setup_norm = statistics.median(res["setup_s"]) / slowdown
        metrics = {
            "op_s_norm": {"value": op_norm, "unit": "s"},
            "setup_s": {"value": setup_norm, "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        lines += [
            f"  op_s_norm    {op_norm:.4f} s   (mean of n={len(ops)} ops at the"
            f" reference speed)",
            f"  setup_s      {setup_norm:.4f} s   (median of n={len(res['setup_s'])}"
            f" fresh interpreters at the reference speed)",
            f"  peak_rss_mb  {res['peak_rss_mb']:.1f} MB  (n=1 workload process)",
            f"  slowdown     {slowdown:.4f} x the reference speed  (mean of"
            f" n={len(res['probe_s'])} calibration loops)",
            f"  wall time    op mean {statistics.mean(ops):.4f} s, median"
            f" {statistics.median(ops):.4f} s, min {min(ops):.4f}, max {max(ops):.4f};"
            f" setup median {statistics.median(res['setup_s']):.4f} s; not normalised",
        ]
    lines.append(f"  error_rate   {res['failed'] / res['attempted']:.4g}   "
                 f"({res['failed']} of n={res['attempted']} ops failed)")
    print("\n".join(lines), flush=True)
    OUT.mkdir(exist_ok=True)
    record = dict(env, workload=workload, seed=seed, seconds=seconds, trace=trace,
                  **res, metrics=metrics)
    (OUT / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return res["attempted"], res["failed"], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*worker.WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="recorded with the result; the inputs are fixed")
    parser.add_argument("--seconds", type=float, required=True,
                        help="time budget of one workload's ops")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "overpart" / "cli.py").is_file():
        print(f"error: no overpart package under {SRC}", file=sys.stderr)
        return 2
    env = {"python": platform.python_version(),
           "nproc": len(os.sched_getaffinity(0))}
    names = list(worker.WORKLOADS) if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            a, f, m = run_workload(name, args.seed, args.seconds, args.trace, env)
            attempted += a
            failed += f
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in m.items()})
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
