"""Command line interface.

Subcommands: gen (coefficient dump), verify (built-in suites), ck
(square-representation counts), dissect (progression slice), scan
(candidate congruence search).

Contract: data on stdout, timing on stderr, byte-identical output for
identical invocations.  Exit 0 on success / all checks passing, 1 when a
verification found a counterexample, 2 on usage errors, including a
--limit whose q^(4 * limit) is past an index, a verify window that
reaches no point of its suite (every check Skipped), a scan window too
short for --min-checks, a 2adic:K source asked for more than pbar mod
2^(K+1) and a window too large for memory, 3 on an internal error (a
bug: the traceback goes to stderr, and only this path imports
traceback).  JSON output is one document; CSV is unquoted.  Reports do
not know which construction built their series; verify stamps --source
on every row.  scan checks its arguments before it builds the series and
builds it in the ring of its largest modulus.

The CLI alone knows how a report or a scan hit looks as JSON.  verify and
scan write it from %-format templates that share one claim template, byte
for byte what json.dumps(indent=2) writes for the list of one object per
report, {claim, status, range, [witness,] source}, or per hit, {claim,
checks, label}.  A claim is {A, B, M}, an identity's claim its id.  A
report's checks count stays out.  A hit, flat (A, B, M, checks, label),
is written by one % of a template that holds the claim template.  The
integer rows of gen, ck and dissect are written by one %d template each.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from itertools import count

from . import congruence, overpartitions
from .series import EXACT, CoeffRing, mod2_ring
from .squares import ck_table

_FORMATS = ("csv", "json", "table")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="overpart",
        description="overpartition congruences: exact series, verifiers, scanner")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p):
        p.add_argument("--source", default=overpartitions.INVERSION,
                       help="invert, product, or 2adic:K (pbar mod 2^(K+1))")

    def add_format(p, default):
        p.add_argument("--format", choices=_FORMATS, default=default)

    p = sub.add_parser("gen", help="dump pbar coefficients")
    p.add_argument("--limit", type=int, required=True, help="highest n")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--mod", type=int, help="reduce mod this power of two")
    g.add_argument("--exact", action="store_true", help="exact values (default)")
    add_source(p)
    add_format(p, "csv")
    p.set_defaults(run=cmd_gen)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", help="one of: " + ", ".join(congruence.SUITES))
    p.add_argument("--limit", type=int, default=10_000)
    add_source(p)
    add_format(p, "json")
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("ck", help="counts of n as ordered sums of k positive squares")
    p.add_argument("--k", type=int, required=True, help="largest tuple length")
    p.add_argument("--limit", type=int, required=True, help="highest n")
    add_format(p, "csv")
    p.set_defaults(run=cmd_ck)

    p = sub.add_parser("dissect", help="slice pbar along t*n + r")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--mod", type=int)
    p.add_argument("--limit", type=int, required=True)
    add_source(p)
    add_format(p, "csv")
    p.set_defaults(run=cmd_dissect)

    p = sub.add_parser("scan", help="search progressions for candidate congruences")
    p.add_argument("--amax", type=int, default=16)
    p.add_argument("--mods", default="4,8,16,32,64",
                   help="comma-separated powers of two")
    p.add_argument("--limit", type=int, default=10_000)
    p.add_argument("--min-checks", type=int, default=50)
    add_format(p, "json")
    p.set_defaults(run=cmd_scan)

    return parser


def _mod_ring(modulus: int | None) -> CoeffRing:
    """The ring of --mod: EXACT when it is absent."""
    if modulus is None:
        return EXACT
    bits = modulus.bit_length() - 1
    if modulus < 2 or (1 << bits) != modulus or bits > 64:
        raise ValueError(f"--mod wants a power of two in 2..2^64, got {modulus}")
    return mod2_ring(bits)


def _emit_rows(fmt: str, header: list[str], rows: list[tuple]) -> str:
    if fmt == "csv":
        line = ",".join(["%s"] * len(header)) + "\n"
        return ",".join(header) + "\n" + "".join(map(line.__mod__, rows))
    if fmt == "json":
        item = "  {\n" + ",\n".join(f'    "{h}": %d' for h in header) + "\n  }"
        return _json_list(list(map(item.__mod__, rows)))
    widths = [max(len(h), *(len(str(r[i])) for r in rows)) if rows else len(h)
              for i, h in enumerate(header)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(str(v).ljust(w) for v, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def cmd_gen(args) -> tuple[str, int]:
    column = "pbar" if args.mod is None else f"pbar_mod_{args.mod}"
    series = overpartitions.generating_series(args.limit, _mod_ring(args.mod), args.source)
    return _emit_rows(args.format, ["n", column], list(enumerate(series.coeffs))), 0


def cmd_ck(args) -> tuple[str, int]:
    header = ["n"] + [f"c{k}" for k in range(1, args.k + 1)]
    rows = list(zip(count(), *ck_table(args.k, args.limit)))
    return _emit_rows(args.format, header, rows), 0


def cmd_dissect(args) -> tuple[str, int]:
    series = overpartitions.generating_series(args.limit, _mod_ring(args.mod), args.source)
    sliced = series.dissect(args.t, args.r)
    return _emit_rows(args.format, ["n", "value"], list(enumerate(sliced.coeffs))), 0


def _sort_key(report):
    """Claims first, in (A, B, M) order, then identities by id."""
    return isinstance(report.subject, str), report.subject


def _report_rows(reports, source):
    rows = []
    for rep in reports:
        c = rep.subject
        subject = c if isinstance(c, str) else f"{c.A}n+{c.B}_mod_{c.M}"
        wn, wv = ("", "") if rep.witness is None else rep.witness
        rows.append((subject, rep.status, rep.range_checked, wn, wv, source))
    return rows


# one report or hit as json.dumps(indent=2) writes it inside a list
_CLAIM_JSON = '{\n      "A": %d,\n      "B": %d,\n      "M": %d\n    }'
_REPORT_JSON = '  {\n    "claim": %s,\n    "status": %s,\n    "range": %d%s,\n    "source": %s\n  }'
_WITNESS_JSON = ',\n    "witness": {\n      "n": %d,\n      "value": %d\n    }'
_HIT_JSON = '  {\n    "claim": %s,\n    "checks": %%d,\n    "label": "%%s"\n  }' % _CLAIM_JSON


def _json_list(items: list[str]) -> str:
    return "[\n" + ",\n".join(items) + "\n]\n" if items else "[]\n"


def _reports_json(reports, source: str) -> str:
    """The reports' JSON, every string escaped by json.dumps."""
    source = json.dumps(source)
    items = []
    for r in reports:
        c = r.subject
        claim = json.dumps(c) if isinstance(c, str) else _CLAIM_JSON % c
        witness = "" if r.witness is None else _WITNESS_JSON % r.witness
        items.append(_REPORT_JSON % (claim, json.dumps(r.status), r.range_checked,
                                     witness, source))
    return _json_list(items)


def cmd_verify(args) -> tuple[str, int]:
    checks = congruence.suite_checks(args.suite)
    order, ring = congruence.series_order(checks, args.limit)
    pbar = overpartitions.generating_series(order, ring, args.source)
    reports = congruence.run_checks(checks, pbar, args.limit)
    if all(r.status == congruence.SKIPPED for r in reports):
        raise ValueError(f"--limit {args.limit} reaches no point of suite "
                         f"{args.suite}: every check was {congruence.SKIPPED}")
    reports.sort(key=_sort_key)
    code = 0 if all(r.ok for r in reports) else 1
    if args.format == "json":
        return _reports_json(reports, args.source), code
    header = ["subject", "status", "range", "witness_n", "witness_value", "source"]
    return _emit_rows(args.format, header, _report_rows(reports, args.source)), code


def cmd_scan(args) -> tuple[str, int]:
    try:
        mods = [int(m) for m in args.mods.split(",") if m.strip()]
    except ValueError:
        raise ValueError(f"--mods wants comma-separated integers, got {args.mods!r}")
    _, ring = congruence.scan_plan(args.amax, mods, args.limit, args.min_checks)
    pbar = overpartitions.generating_series(args.limit, ring, overpartitions.INVERSION)
    hits = congruence.scan_congruences(pbar, args.amax, mods, args.limit,
                                       args.min_checks)
    if args.format == "json":
        return _json_list(list(map(_HIT_JSON.__mod__, hits))), 0
    return _emit_rows(args.format, ["A", "B", "M", "checks", "label"], hits), 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        if args.limit < 0:
            raise ValueError(f"--limit must be >= 0, got {args.limit}")
        # verify reads out to q^(4 * limit), which must stay an index
        if 4 * args.limit >= sys.maxsize:
            raise ValueError(f"--limit must be below {-(-sys.maxsize // 4)}, "
                             f"got {args.limit}")
        out, code = args.run(args)
    except (ValueError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory; try a smaller --limit'}", file=sys.stderr)
        return 2
    except Exception as exc:
        import traceback
        traceback.print_exc()
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3
    sys.stdout.write(out)
    print(f"elapsed: {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    return code


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
