"""Per-layer spans for the traced benchmark run, recorded from outside the package.

A Tracer replaces public functions of overpart's modules with timing
wrappers at the attribute where callers look them up, and puts the
originals back afterwards; the package itself is never edited.  Each call
records a span (name, start, end, parent span, op id) in memory.  A
layer's self time is its span's duration minus its direct child spans,
and minus the time the tracer spent computing counts for those children.

Counts marked "computed" below are derived from operand sizes after the
call returns, not measured inside the package.
"""

from __future__ import annotations

import inspect
import json
import statistics
import time
from collections import defaultdict

# per-layer metric -> (span name, "self" or "total" time); one op's value
# is the sum over that op's spans of the name
TIME_METRICS = {
    "series.mul.s": ("series.mul", "self"),
    "series.invert.s": ("series.invert", "self"),
    "series.pow.s": ("series.pow", "self"),
    "series.elementwise.s": ("series.elementwise", "self"),
    "theta.gen.s": ("theta.gen", "self"),
    "theta.pochhammer.s": ("theta.pochhammer", "self"),
    "squares.ck_table.s": ("squares.ck_table", "self"),
    "overpartitions.build.s": ("overpartitions.build", "total"),
    "overpartitions.two_adic.s": ("overpartitions.two_adic", "self"),
    "congruence.verify.s": ("congruence.verify", "self"),
    "congruence.dissection.s": ("congruence.dissection", "self"),
    "congruence.dissection_cmp.s": ("congruence.dissection_cmp", "self"),
    "congruence.scan.s": ("congruence.scan", "self"),
    "congruence.known_claims.s": ("congruence.known_claims", "self"),
    "cli.self.s": ("cli.main", "self"),
}

# (name, better); every count is per op and repeats exactly between runs
COUNT_METRICS = (
    ("series.mul.calls", "lower"),
    ("series.mul.bytes", "lower"),        # computed: packed operands + product
    ("series.invert.calls", "lower"),
    ("series.invert.madds", "lower"),     # computed: sum over n of support terms <= n
    ("squares.ck_table.hits", "higher"),
    ("squares.ck_table.misses", "lower"),
    ("congruence.verify.points", "higher"),  # computed: window positions walked
    ("congruence.scan.rows", "higher"),      # computed: (A, B) rows tested
    ("congruence.scan.hits", "higher"),
    ("cli.out_bytes", "lower"),
)

OVERHEAD_METRICS = (
    ("trace.op_s_mean", "s", "lower"),    # mean traced op, same run
    ("trace.overhead", "ratio", "lower"),  # mean traced / mean untraced op - 1
)


def per_layer_spec() -> list[dict]:
    """Every per-layer metric the traced run reports, as BENCHMARK.json lists them."""
    spec = [{"name": m, "unit": "s", "better": "lower"} for m in TIME_METRICS]
    spec += [{"name": m, "unit": "bytes" if m.endswith("bytes") else "count",
              "better": b} for m, b in COUNT_METRICS]
    spec += [{"name": m, "unit": u, "better": b} for m, u, b in OVERHEAD_METRICS]
    return spec


def _mul_name(args):
    # series * int and int * series scale coefficientwise; only
    # series * series reaches the Kronecker multiply
    return "series.elementwise" if isinstance(args[1], int) else "series.mul"


def _slot_bytes(a, b):
    # _convolve's slot-width rule: the largest convolution sum plus two bits
    amax, bmax = max(map(abs, a)), max(map(abs, b))
    if not amax or not bmax:
        return 0
    return ((amax * bmax * min(len(a), len(b))).bit_length() + 2 + 7) // 8


def _mul_counts(bound, result):
    a, b = bound["self"], bound["other"]
    if isinstance(b, int):
        return {}
    outlen = result.order + 1
    ca, cb = a.coeffs[:outlen], b.coeffs[:outlen]
    slots = 2 * len(ca) + 2 * len(cb) - 1
    return {"series.mul.calls": 1, "series.mul.bytes": slots * _slot_bytes(ca, cb)}


def _invert_counts(bound, result):
    a = bound["self"].coeffs
    madds = sum(len(a) - i for i in range(1, len(a)) if a[i])
    return {"series.invert.calls": 1, "series.invert.madds": madds}


def _progression_points(bound, report):
    claim = report.subject
    return {"congruence.verify.points":
            len(range(claim.B, report.range_checked + 1, claim.A))}


def _window_points(bound, report):
    return {"congruence.verify.points": report.range_checked + 1}


def _scan_counts(bound, hits):
    pbar, limit = bound["pbar"], bound["limit"]
    limit = pbar.order if limit is None else limit
    rows = sum(1 for A in range(1, bound["amax"] + 1)
               for B in range(min(A, limit + 1))
               if len(range(B, limit + 1, A)) >= bound["min_checks"])
    return {"congruence.scan.rows": rows, "congruence.scan.hits": len(hits)}


def _wrap_targets(pkg):
    """(owner, attribute, span name or name function, counter) per boundary."""
    series, theta, overpartitions = pkg.series, pkg.theta, pkg.overpartitions
    congruence, cli = pkg.congruence, pkg.cli
    S = series.TruncatedSeries
    targets = [
        (S, "__mul__", _mul_name, _mul_counts),
        (S, "__rmul__", _mul_name, _mul_counts),
        (S, "invert", "series.invert", _invert_counts),
        (S, "__pow__", "series.pow", None),
    ]
    targets += [(S, attr, "series.elementwise", None) for attr in (
        "__init__", "__add__", "__sub__", "__neg__", "shift",
        "substitute_power", "reduce_mod", "dissect")]
    targets += [(theta, f, "theta.gen", None)
                for f in ("phi", "phi_neg", "psi", "psi1", "psi2")]
    targets += [(theta, f, "theta.pochhammer", None)
                for f in ("pochhammer_qq", "pochhammer_negqq")]
    targets += [
        # wrapped where two_adic looks it up; the lru cache itself stays put
        (overpartitions, "ck_table", "squares.ck_table", _CkCounter(pkg.squares.ck_table)),
        (overpartitions, "generating_series", "overpartitions.build", None),
        (overpartitions, "two_adic", "overpartitions.two_adic", None),
        (congruence, "verify_progression", "congruence.verify", _progression_points),
        (congruence, "verify_mod8_nonsquare", "congruence.verify", _window_points),
        (congruence, "verify_4n_relations", "congruence.verify", _window_points),
        (congruence, "dissection_rhs_mod16", "congruence.dissection", None),
        (congruence, "verify_dissection_mod16", "congruence.dissection_cmp", None),
        (congruence, "scan_congruences", "congruence.scan", _scan_counts),
        (congruence, "known_claims", "congruence.known_claims", None),
        (cli, "main", "cli.main", None),
    ]
    return targets


class _CkCounter:
    """Cache hits and misses of one ck_table call, from the lru cache's own
    statistics; a table without a cache counts every call as a miss."""

    def __init__(self, cached):
        self._info = getattr(cached, "cache_info", None)
        self._last = None

    def before(self):
        if self._info:
            self._last = self._info()

    def __call__(self, bound, result):
        if not self._info:
            return {"squares.ck_table.misses": 1}
        now = self._info()
        return {"squares.ck_table.hits": now.hits - self._last.hits,
                "squares.ck_table.misses": now.misses - self._last.misses}


class Tracer:
    """Spans and counts for traced ops.  install() before an op, uninstall()
    after it; untraced ops in the same process run the package unwrapped."""

    def __init__(self, pkg):
        targets = _wrap_targets(pkg)
        # a boundary the package no longer has reports zero, and is listed
        self.missing = [f"{o.__name__}.{a}" for o, a, _, _ in targets if a not in o.__dict__]
        self._targets = [t for t in targets if t[1] in t[0].__dict__]
        self._saved = []
        self._stack = []
        self.spans = []      # [name, start, end, parent index or -1, op, excluded]
        self.counts = defaultdict(lambda: defaultdict(int))  # op -> metric -> n
        self.op = 0

    def install(self, op: int):
        self.op = op
        for owner, attr, name, counter in self._targets:
            orig = owner.__dict__[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name, counter))

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def add_count(self, metric: str, n: int):
        self.counts[self.op][metric] += n

    def _wrap(self, orig, name, counter):
        spans, stack = self.spans, self._stack
        sig = inspect.signature(orig) if counter else None
        before = getattr(counter, "before", None)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            span = [name if isinstance(name, str) else name(args), 0.0, 0.0,
                    parent, self.op, 0.0]
            spans.append(span)
            stack.append(idx)
            if before:
                before()
            span[1] = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for metric, n in counter(bound.arguments, result).items():
                    self.counts[self.op][metric] += n
                if parent >= 0:
                    spans[parent][5] += time.perf_counter() - span[2]
            return result

        return wrapper

    def op_layers(self) -> dict[int, dict[str, float]]:
        """Per traced op: every time metric in seconds and every count."""
        child = defaultdict(float)
        for name, start, end, parent, op, excluded in self.spans:
            if parent >= 0:
                child[parent] += end - start
        times = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, op, excluded) in enumerate(self.spans):
            times[op][name, "total"] += end - start
            times[op][name, "self"] += end - start - child[i] - excluded
        out = {}
        for op in times:
            row = {m: times[op][key] for m, key in TIME_METRICS.items()}
            row.update({m: self.counts[op].get(m, 0) for m, _ in COUNT_METRICS})
            out[op] = row
        return out

    def layer_means(self) -> dict[str, float]:
        """Each metric's mean over the traced ops; counts are the same in
        every op, so their mean is that count."""
        rows = list(self.op_layers().values())
        return {m: statistics.mean(r[m] for r in rows) for m in rows[0]}

    def write(self, path, header: dict):
        """Spans and per-op counts as one JSON document."""
        doc = dict(header, span_fields=["name", "start", "end", "parent", "op",
                                        "count_time_excluded"],
                   spans=self.spans, counts=self.counts, unwrapped=self.missing)
        with open(path, "w") as fh:
            json.dump(doc, fh)
