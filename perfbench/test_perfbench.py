"""The benchmark's own tests: a corrupted op output must count as a failed
op, the tracer must leave the package as it found it, and BENCHMARK.json
must list exactly the metrics the benchmark reports."""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys

import pytest

import calib
import run
import spans
import worker


@functools.lru_cache(maxsize=None)
def _real_output(name: str) -> str:
    pkg = worker.load_package()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert pkg.cli.main(list(worker.WORKLOADS[name].argv)) == 0
    return out.getvalue()


def _replay(text: str):
    def main(argv):
        sys.stdout.write(text)
        return 0
    return main


def _wrong_coefficient(out: str) -> str:
    lines = out.splitlines(keepends=True)
    n, v = lines[4001].split(",")
    lines[4001] = f"{n},{int(v) + 2}\n"
    return "".join(lines)


def _flipped_verdict(out: str) -> str:
    doc = json.loads(out)
    doc[17]["status"] = "Counterexample"
    return json.dumps(doc, indent=2) + "\n"


def _missing_scan_hit(out: str) -> str:
    doc = json.loads(out)
    del doc[1234]
    return json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("name, corrupt", [
    ("gen-product", _wrong_coefficient),
    ("verify-invert", _flipped_verdict),
    ("scan-wide", _missing_scan_hit),
])
def test_corrupted_output_raises_error_rate(name, corrupt):
    good = _real_output(name)
    load = worker.WORKLOADS[name]
    assert worker.error_rate(worker.run_ops(load, 0, main=_replay(good))) == 0
    assert worker.error_rate(worker.run_ops(load, 0, main=_replay(corrupt(good)))) == 1


def test_slowdown_weights_the_calibration_loops():
    ref = calib.REFERENCE
    assert calib.slowdown([ref, ref], 0.5) == pytest.approx(1.0)
    slow_bigint = calib.Probe(2 * ref.bigint_s, ref.interp_s)
    assert calib.slowdown([slow_bigint], 1.0) == pytest.approx(2.0)
    assert calib.slowdown([slow_bigint], 0.0) == pytest.approx(1.0)
    assert calib.slowdown([slow_bigint, ref], 0.5) == pytest.approx(1.25)
    assert calib.probe().bigint_s > 0


def test_wrong_exit_code_fails_the_op():
    good = _real_output("scan-wide")
    assert worker.check_scan(1, good) is not None
    assert worker.check_scan(0, good) is None


def test_tracer_spans_counts_and_restore(tmp_path):
    pkg = worker.load_package()
    S = pkg.series.TruncatedSeries
    before = (S.__mul__, S.invert, pkg.overpartitions.ck_table, pkg.cli.main)
    tracer = spans.Tracer(pkg)
    small = worker.Workload(["verify", "all", "--limit", "300"],
                            lambda code, out: None, 0.5)
    ops = worker.run_ops(small, 0, tracer)
    assert [op.traced for op in ops] == [False, True]
    assert (S.__mul__, S.invert, pkg.overpartitions.ck_table, pkg.cli.main) == before
    assert tracer.missing == []

    layers = tracer.op_layers()[1]
    assert layers["series.invert.calls"] == 2
    assert layers["series.mul.calls"] > 0 and layers["series.mul.bytes"] > 0
    assert layers["congruence.verify.points"] > 0
    assert layers["cli.out_bytes"] > 0
    self_times = [layers[m] for m, (_, kind) in spans.TIME_METRICS.items()
                  if kind == "self"]
    assert all(t >= 0 for t in self_times)
    assert sum(self_times) <= ops[1].seconds

    tracer.write(tmp_path / "trace.json", {"workload": "small"})
    doc = json.loads((tmp_path / "trace.json").read_text())
    roots = [s for s in doc["spans"] if s[3] == -1]
    assert [s[0] for s in roots] == ["cli.main"]


def test_benchmark_json_lists_the_reported_metrics():
    bench = json.loads((worker.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(worker.WORKLOADS)
    assert bench["per_layer"] == spans.per_layer_spec()
    e2e = {m["name"] for m in bench["end_to_end"]}
    assert e2e == {"op_s_norm", "setup_s", "peak_rss_mb"}
    assert bench["command"][1] == "perfbench/run.py"
    assert run.HERE.name == bench["paths"][0]
