"""The command line surface, driven in-process through cli.main.

Contract under test: data on stdout and timing on stderr, byte-identical
output for identical invocations, exit 0 / 1 / 2 for success /
counterexample / usage error.
"""

import hashlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from overpart import cli, congruence, overpartitions
from overpart.cli import main
from overpart.series import mod2_ring

from oracles import hit_json_dict, pbar_by_recurrence, report_json_dict


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- gen -----------------------------------------------------------------

def test_gen_first_rows(capsys):
    code, out, err = run_cli(capsys, "gen", "--limit", "3", "--exact")
    assert code == 0
    assert out == "n,pbar\n0,1\n1,2\n2,4\n3,8\n"
    assert "elapsed" in err and "elapsed" not in out


def test_gen_limit_zero(capsys):
    code, out, _ = run_cli(capsys, "gen", "--limit", "0")
    assert code == 0
    assert out == "n,pbar\n0,1\n"


def test_gen_mod_column(capsys):
    code, out, _ = run_cli(capsys, "gen", "--limit", "4", "--mod", "16")
    assert code == 0
    assert out == "n,pbar_mod_16\n0,1\n1,2\n2,4\n3,8\n4,14\n"


def test_gen_two_adic_equals_inversion_mod_16(capsys):
    _, via_2adic, _ = run_cli(capsys, "gen", "--limit", "100", "--mod", "16",
                              "--source", "2adic:3")
    _, via_invert, _ = run_cli(capsys, "gen", "--limit", "100", "--mod", "16",
                               "--source", "invert")
    assert via_2adic == via_invert


@pytest.mark.parametrize("mod, source", (("4294967296", "2adic:31"), ("128", "2adic:6")))
def test_gen_two_adic_equals_inversion_at_order_6000(capsys, mod, source):
    # the order verify all --limit 1500 builds; mod 2^32 reads multi-byte slots
    argv = ("gen", "--limit", "6000", "--mod", mod, "--source")
    code, via_2adic, _ = run_cli(capsys, *argv, source)
    assert code == 0
    assert via_2adic == run_cli(capsys, *argv, "invert")[1]


def test_gen_json_format(capsys):
    code, out, _ = run_cli(capsys, "gen", "--limit", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == [{"n": 0, "pbar": 1}, {"n": 1, "pbar": 2},
                               {"n": 2, "pbar": 4}]


def test_gen_table_format(capsys):
    code, out, _ = run_cli(capsys, "gen", "--limit", "2", "--format", "table")
    assert code == 0
    assert out == "n  pbar\n0  1\n1  2\n2  4\n"


def test_gen_flag_validation(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--limit", "3", "--exact", "--mod", "8"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, err = run_cli(capsys, "gen", "--limit", "3", "--mod", "12")
    assert code == 2 and out == "" and "error:" in err
    code, _, _ = run_cli(capsys, "gen", "--limit", "-1")
    assert code == 2
    code, _, _ = run_cli(capsys, "gen", "--limit", "3", "--source", "magic")
    assert code == 2


@pytest.mark.parametrize("argv", [
    f"gen --limit {10 ** 19}",
    f"verify all --limit {2 ** 61}",
    f"scan --limit {10 ** 20}",
    f"dissect --t 2 --r 0 --limit {10 ** 20}",
    f"ck --k 2 --limit {10 ** 20}",
])
def test_limit_past_an_index_is_a_usage_error(capsys, argv):
    # verify reads out to q^(4 * limit); a limit whose 4 * limit is not an
    # index is refused before anything is built, not left to fail in a build
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *argv.split())
    assert time.perf_counter() - t0 < 1
    assert code == 2 and out == ""
    assert "error: --limit must be below" in err and "Traceback" not in err


def test_gen_mod_every_width_prints_the_exact_column(capsys):
    # every modulus --mod accepts, 2 .. 2^64, builds its ring and exits 0;
    # exit 3 is kept for bugs.  Both sources divide in Z/2^m, at widths
    # whose slots are narrower than a 4- or 8-byte value (m = 17..22 and
    # 33..54 among them).
    exact = pbar_by_recurrence(100)
    for m in range(1, 65):
        for limit in (1, 100):
            want = f"n,pbar_mod_{2 ** m}\n" + "".join(
                f"{n},{c % 2 ** m}\n" for n, c in enumerate(exact[:limit + 1]))
            for source in ("invert", "product"):
                code, out, _ = run_cli(capsys, "gen", "--limit", str(limit),
                                       "--mod", str(2 ** m), "--source", source)
                assert (code, out) == (0, want), (m, limit, source)


# sha256 of the stdout of the exact gen runs: the one the benchmark times
# (whose harness checks only the coefficient column) and the everyday
# 20000-row dump, which both sources must write byte for byte
GEN_20000 = "8d532cd7c45463919114a7dfc3c7d52cdfddeda210128504c7ecc719d61907b8"
PINNED_GEN_RUNS = {
    "gen --limit 5000 --exact --source product":
        "12753c80b6cd5bcf0d6d0b3f0b7bce28d41ae1c26286878cfef318394cbe8eb1",
    "gen --limit 20000 --exact": GEN_20000,
    "gen --limit 20000 --exact --source product": GEN_20000,
}


@pytest.mark.parametrize("argv", sorted(PINNED_GEN_RUNS))
def test_gen_exact_output_pinned(capsys, argv):
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_GEN_RUNS[argv]


# -- ck ---------------------------------------------------------------------

def test_ck_output(capsys):
    code, out, _ = run_cli(capsys, "ck", "--k", "3", "--limit", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,c1,c2,c3"
    assert len(lines) == 12
    assert lines[6] == "5,0,2,0"
    assert lines[7] == "6,0,0,3"
    assert lines[10] == "9,1,0,3"


# sha256 of `ck --k 31 --limit 6000` stdout, the heaviest everyday ck run
PINNED_CK_31 = "e10942a876a411e1056de835563eec26dcb66dd2d907df32cbabc6d90e2e3788"


def test_ck_output_pinned(capsys):
    code, out, _ = run_cli(capsys, "ck", "--k", "31", "--limit", "6000")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_CK_31


def test_ck_validation(capsys):
    code, _, err = run_cli(capsys, "ck", "--k", "0", "--limit", "10")
    assert code == 2 and "error:" in err
    code, _, _ = run_cli(capsys, "ck", "--k", "2", "--limit", "-1")
    assert code == 2


# -- dissect -----------------------------------------------------------------

def test_dissect_zero_column(capsys):
    code, out, _ = run_cli(capsys, "dissect", "--t", "16", "--r", "14",
                           "--mod", "16", "--limit", "1000")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,value"
    assert len(lines) == 63  # header + floor((1000-14)/16) + 1 rows
    assert all(line.endswith(",0") for line in lines[1:])


def test_dissect_exact_values(capsys):
    code, out, _ = run_cli(capsys, "dissect", "--t", "4", "--r", "2",
                           "--limit", "10")
    assert code == 0
    assert out == "n,value\n0,4\n1,40\n2,232\n"


def test_dissect_validation(capsys):
    code, _, err = run_cli(capsys, "dissect", "--t", "4", "--r", "4",
                           "--limit", "10")
    assert code == 2 and "error:" in err
    code, _, _ = run_cli(capsys, "dissect", "--t", "16", "--r", "11",
                         "--limit", "10")
    assert code == 2  # residue past the truncation order
    code, out, err = run_cli(capsys, "dissect", "--t", "4", "--r", "1",
                             "--limit", "-1")
    assert code == 2 and out == ""
    assert "--limit must be >= 0" in err


# -- verify -------------------------------------------------------------------

def test_verify_json_report(capsys):
    code, out, _ = run_cli(capsys, "verify", "thm-16n14", "--limit", "2000")
    assert code == 0
    doc = json.loads(out)
    assert doc == [{"claim": {"A": 16, "B": 14, "M": 16}, "status": "Verified",
                    "range": 2000, "source": "invert"}]


def test_verify_suite_parameter_errors(capsys):
    code, _, err = run_cli(capsys, "verify", "thm-ell:5", "--limit", "100")
    assert code == 2
    assert "mod-16 family needs ell == 7 (mod 8)" in err
    code, _, _ = run_cli(capsys, "verify", "thm-ell:x", "--limit", "100")
    assert code == 2
    code, _, _ = run_cli(capsys, "verify", "nonsense", "--limit", "100")
    assert code == 2
    code, _, _ = run_cli(capsys, "verify", "thm-4n:5", "--limit", "100")
    assert code == 2
    for suite in ("thm-16n14:3", "thm-ell", "thm-ell:", "all:1"):
        code, out, err = run_cli(capsys, "verify", suite, "--limit", "100")
        assert code == 2 and out == "" and "error:" in err, suite
    code, out, err = run_cli(capsys, "verify", "all", "--limit", "-1")
    assert code == 2 and out == ""
    assert "--limit must be >= 0" in err
    for suite, ell in (("thm-ell:-7", -7), ("families8:-3", -3)):
        code, out, err = run_cli(capsys, "verify", suite, "--limit", "100")
        assert code == 2 and out == ""
        assert f"need an odd prime, got ell={ell}" in err, suite


def test_verify_family_parameter_bound(capsys):
    # a family past ell = 2^16 is refused before any claim or series is built
    for suite, ell in (("thm-ell:2305843009213693951", 2**61 - 1),
                       ("families8:65537", 65537)):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", suite)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert f"family parameter must be below 2^16, got ell={ell}" in err


# sha256 and report count of `verify SUITE --limit 600` stdout, pinned so
# that any change to a suite's checks, report order or format fails here
PINNED_SUITES = [
    ("thm-16n14", 1, "b5152902abc8d270b95ac0ddb55284d5582d631e9e0fc5bfe7a8fa2536625209"),
    ("thm-ell:7", 6, "a55f4038dcdbdf3ef5f1b9ed67d8627ddf312e9f7b1fa6308143af9ee8444640"),
    ("thm-ell:23", 22, "5eea11f3615d117a7475fbe9ba313379f391641e2a5cb03e6a99066205425fc3"),
    ("thm-4n:4", 1, "415d20df59fd494cd8a812def46dfdaeb3ab735e4bddbdead1ce01f4f0e38be1"),
    ("thm-4n:128", 1, "6c821fa6695a747d5042531709e4850721c5bb91ae58dbac01a9aaa937725833"),
    ("dissection", 1, "67c3607970f98d7c55a15933f40c8155bb3e0dc6efc68c34a0edbcd343267424"),
    ("kim8", 1, "b6b5cd59a7e17c182e7952c133872006da63d089a23ddb4467e207b5389c17c8"),
    ("families8:3", 4, "a82eeb0226d666493faa1acebb2849a42e9a070b038d25e429d54f6936cd3a22"),
    ("families8:13", 36, "52451007b312bd0700af596eb9a7289c13e689ef35296781151986a0535c1f18"),
    ("known-table", 107, "993b5be4179c79dfa8d7f6588f99bbf0ed49ea90f228b2c05c01245e5b702c31"),
    ("combined", 9, "27b8e54bf137a40a70ef2ad981af07183d22ee85a92b2be9441dba6dd4df3787"),
    ("all", 152, "4b5675c6df1a82f291c3babb8a4e2ee19091beeab01db8c1dc4b1f6f7e0720b5"),
]


@pytest.mark.parametrize("suite,count,digest", PINNED_SUITES,
                         ids=[s for s, _, _ in PINNED_SUITES])
def test_verify_suite_output_pinned(capsys, suite, count, digest):
    code, out, _ = run_cli(capsys, "verify", suite, "--limit", "600")
    assert code == 0
    assert len(json.loads(out)) == count
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the stdout of the two verify runs the benchmark times, so that
# a change to a verifier's window or walk shows beyond --limit 600
PINNED_VERIFY_RUNS = {
    "verify all --limit 10000":
        "166e40d0cbb030e9e90e2a4ca9d99fabe03150deb48a8dd8b9ae4453a6815193",
    "verify all --limit 1500 --source 2adic:31":
        "bd9e8883073a95a96774971a0e524e6e4d6735e74c0d425e9626ad27a80db819",
}


@pytest.mark.parametrize("argv", sorted(PINNED_VERIFY_RUNS))
def test_verify_run_output_pinned(capsys, argv):
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert len(json.loads(out)) == 152
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_VERIFY_RUNS[argv]


# sha256 and hit count of `scan --format FMT` stdout with every other
# setting at its default (amax 16, mods 4..64, limit 10000, min-checks 50)
PINNED_SCAN = {
    "json": (118, "a684dc6919e2b7ded95027bb9ad09868e97e9b9153bc69c0c9e465043056b11f"),
    "table": (118, "729b688926c4c193af38b1b24fe7a3aa38c0d3582d7245a8a8517a3776c60428"),
}


# sha256 of the whole stdout of the scan the benchmark times (scan-wide);
# the benchmark's own digest covers only the (A, B, M, checks) of its hits
PINNED_SCAN_WIDE = "791db480c7bb5ed5577cbda27ffc7f6615bc0fa3d0baff4be5b65ba1ddfb23a3"


def test_scan_wide_output_pinned(capsys):
    code, out, _ = run_cli(capsys, "scan", "--amax", "128", "--mods",
                           "4,8,16,32,64,128", "--limit", "20000")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SCAN_WIDE


@pytest.mark.parametrize("fmt", sorted(PINNED_SCAN))
def test_scan_output_pinned(capsys, fmt):
    count, digest = PINNED_SCAN[fmt]
    code, out, _ = run_cli(capsys, "scan", "--format", fmt)
    assert code == 0
    hits = json.loads(out) if fmt == "json" else out.splitlines()[1:]
    assert len(hits) == count
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_product_source_matches_invert(capsys):
    # the two exact constructions give the same reports; only the source
    # field names which one was used
    reports = {}
    for source in ("invert", "product"):
        code, out, _ = run_cli(capsys, "verify", "all", "--limit", "600",
                               "--source", source)
        assert code == 0
        reports[source] = json.loads(out)
        assert all(r.pop("source") == source for r in reports[source])
    assert len(reports["product"]) == 152
    assert reports["product"] == reports["invert"]


def test_verify_two_adic_source_matches_invert(capsys):
    # 2adic:31 carries pbar mod 2^32, so at a window of 2500 it reproduces
    # every report of the exact inversion
    reports = {}
    for source in ("invert", "2adic:31"):
        code, out, _ = run_cli(capsys, "verify", "all", "--limit", "2500",
                               "--source", source)
        assert code == 0
        reports[source] = json.loads(out)
        assert all(r.pop("source") == source for r in reports[source])
    assert len(reports["2adic:31"]) == 152
    assert reports["2adic:31"] == reports["invert"]


def test_verify_counterexample_exits_one(capsys):
    # pbar(14) = 1040 is 0 mod 16 but 16 mod 32, so the claim fails at n = 0
    code, out, _ = run_cli(capsys, "verify", "claim:16,14,32", "--limit", "200")
    assert code == 1
    doc = json.loads(out)
    assert doc[0]["status"] == "Counterexample"
    assert doc[0]["witness"] == {"n": 0, "value": 16}


def test_verify_counterexample_past_256_exits_one(capsys):
    # M = 2^64, past a byte: the verdict reads its residues as a list;
    # pbar(7) = 64 fails the claim at n = 0
    code, out, _ = run_cli(capsys, "verify", "claim:8,7,18446744073709551616",
                           "--limit", "200")
    assert code == 1
    doc = json.loads(out)
    assert doc == [{"claim": {"A": 8, "B": 7, "M": 2**64}, "status": "Counterexample",
                    "range": 200, "witness": {"n": 0, "value": 64}, "source": "invert"}]


def test_verify_claim_past_64_bits_reads_exact_coefficients(capsys):
    # M = 2^70: no Z/2^m holds it, so invert builds pbar in Z and pbar(7) = 64
    # fails the claim at n = 0; 2adic:31 carries only pbar mod 2^32
    code, out, _ = run_cli(capsys, "verify", f"claim:8,7,{2**70}", "--limit", "200")
    assert code == 1
    assert json.loads(out) == [{"claim": {"A": 8, "B": 7, "M": 2**70},
                                "status": "Counterexample", "range": 200,
                                "witness": {"n": 0, "value": 64}, "source": "invert"}]
    code, out, err = run_cli(capsys, "verify", f"claim:8,7,{2**70}", "--limit", "200",
                             "--source", "2adic:31")
    assert code == 2 and out == ""
    assert "Z needs invert or product" in err


def test_verify_json_is_the_reports_json_dumps():
    # a claim and string subjects, a witness, a Skipped report, a value
    # past 64 bits and strings json.dumps must escape
    reports = [
        congruence.VerificationReport(congruence.CongruenceClaim(16, 14, 16),
                                      congruence.VERIFIED, 10000, None, 625),
        congruence.VerificationReport("mod8-nonsquare", congruence.COUNTEREXAMPLE,
                                      40, (3, 5), 1),
        congruence.VerificationReport("4n-vs-n-mod4", congruence.SKIPPED, 0, None, 0),
        congruence.VerificationReport(congruence.CongruenceClaim(8, 7, 2**64),
                                      congruence.COUNTEREXAMPLE, 2**70, (0, 2**65), 1),
        congruence.VerificationReport('a "quoted"\\id\u00e9\n', congruence.VERIFIED,
                                      7, None, 2),
    ]
    for source in ("invert", "2adic:31", 'odd"source\u00e9'):
        doc = [report_json_dict(r, source) for r in reports]
        assert cli._reports_json(reports, source) == json.dumps(doc, indent=2) + "\n"
    assert cli._reports_json([], "invert") == json.dumps([], indent=2) + "\n"


def test_verify_claim_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "claim:16,14,16", "--limit", "10000")
    assert code == 0
    assert json.loads(out) == [{"claim": {"A": 16, "B": 14, "M": 16},
                                "status": "Verified", "range": 10000,
                                "source": "invert"}]
    for suite in ("claim:16,14", "claim:16,15,12", "claim:x,14,16"):
        code, out, err = run_cli(capsys, "verify", suite, "--limit", "200")
        assert code == 2 and out == "" and "error:" in err, suite


# a 2-adic source carries pbar mod 2^(K+1) only: exact values, a wider
# --mod, or a check mod more than 2^(K+1) is a usage error, not a number
@pytest.mark.parametrize("argv", [
    "gen --limit 5 --exact --source 2adic:2",
    "gen --limit 6 --mod 64 --source 2adic:3",
    "dissect --t 16 --r 14 --limit 100 --source 2adic:3",
    "verify thm-16n14 --limit 2000 --source 2adic:1",
    "verify all --limit 600 --source 2adic:1",
    "verify all --limit 600 --source 2adic:2",
    "verify all --limit 100 --source 2adic:64",
    "gen --limit 3 --mod 2 --source 2adic:0",
])
def test_two_adic_precision_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2 and out == ""
    assert "error:" in err


def test_verify_builds_the_ring_its_checks_read(capsys):
    # verify all reads residues mod 2^7 at most, so 2adic:6 is as good as
    # 2adic:31 and 2adic:5 is one bit short; thm-16n14 reads mod 16 only
    reports = {}
    for source in ("2adic:6", "2adic:31"):
        code, out, _ = run_cli(capsys, "verify", "all", "--limit", "1500",
                               "--source", source)
        assert code == 0
        reports[source] = json.loads(out)
        assert all(r.pop("source") == source for r in reports[source])
    assert reports["2adic:6"] == reports["2adic:31"]
    code, out, err = run_cli(capsys, "verify", "all", "--limit", "1500",
                             "--source", "2adic:5")
    assert code == 2 and out == ""
    assert "source 2adic:5 carries pbar mod 2^6 only; Z/2^7 needs 2adic:6" in err
    code, out, _ = run_cli(capsys, "verify", "thm-16n14", "--limit", "2000",
                           "--source", "2adic:3")
    assert code == 0 and json.loads(out)[0]["status"] == "Verified"


def test_verify_zero_points_is_a_usage_error(capsys):
    # kim8 skips squares and twice-squares, so 0..2 holds no point of it
    for limit in ("0", "1", "2"):
        code, out, err = run_cli(capsys, "verify", "kim8", "--limit", limit)
        assert code == 2 and out == ""
        assert "reaches no point of suite kim8" in err
    code, out, _ = run_cli(capsys, "verify", "kim8", "--limit", "3")
    assert code == 0 and json.loads(out)[0]["status"] == "Verified"
    # every pbar(4n) tier starts at n = 1, where pbar(0) = pbar(4*0) is
    # no evidence; the mod-128 tier keeps n == 0 (mod 4) only
    runs = [(f"thm-4n:{m}", "0") for m in (4, 8, 16, 32, 64, 128)]
    for suite, limit in runs + [("thm-4n:128", "3")]:
        code, out, err = run_cli(capsys, "verify", suite, "--limit", limit)
        assert code == 2 and out == "", (suite, limit)
        assert f"reaches no point of suite {suite}" in err
    code, out, _ = run_cli(capsys, "verify", "thm-4n:128", "--limit", "4")
    assert code == 0 and json.loads(out)[0]["status"] == "Verified"


def test_verify_all_composition(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--limit", "400")
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 152
    assert all(r["status"] in ("Verified", "Skipped") for r in doc)
    assert any(r["status"] == "Skipped" for r in doc)
    claims = [r["claim"] for r in doc if isinstance(r["claim"], dict)]
    ids = [r["claim"] for r in doc if isinstance(r["claim"], str)]
    assert {"A": 16, "B": 14, "M": 16} in claims
    assert sorted(set(ids)) == ["4n-vs-n-mod128", "4n-vs-n-mod16",
                                "4n-vs-n-mod32", "4n-vs-n-mod4",
                                "4n-vs-n-mod64", "4n-vs-n-mod8",
                                "dissection-mod16", "mod8-nonsquare"]
    # claims come sorted, identity ids after them
    keys = [(c["A"], c["B"], c["M"]) for c in claims]
    assert keys == sorted(keys)


def test_verify_dissection_runs_below_order_16(capsys):
    # the dissection checks q^0 already, so no window is too short for it
    for suite, limit in [("dissection", "0"), ("dissection", "15"), ("all", "0"),
                         ("all", "15")]:
        code, out, _ = run_cli(capsys, "verify", suite, "--limit", limit)
        assert code == 0, (suite, limit)
        doc = {r["claim"]: r["status"] for r in json.loads(out)
               if isinstance(r["claim"], str)}
        assert doc["dissection-mod16"] == "Verified"


def test_verify_all_skipped_is_a_usage_error(capsys):
    # --limit 10 is below every offset B of thm-ell:23: nothing is checked
    code, out, err = run_cli(capsys, "verify", "thm-ell:23", "--limit", "10")
    assert code == 2 and out == ""
    assert "reaches no point of suite thm-ell:23" in err


def test_verify_table_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "thm-16n14", "--limit", "500",
                           "--format", "table")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["subject", "status", "range", "witness_n",
                                "witness_value", "source"]
    assert "16n+14_mod_16" in lines[1] and "Verified" in lines[1]


# sha256 of `verify thm-ell:7 --limit 600 --source product --format FMT`
# stdout: the source column outside JSON names the --source given
PINNED_ROWS = {
    "csv": "b8f729cf4950f87ae3410c41a0576de39fc130fe00546abdf7206b722a1452f4",
    "table": "1d05e29d9740c83dd282abf9c5e615aa7e09fa63a3bfae1aca158084960c2223",
}


@pytest.mark.parametrize("fmt", sorted(PINNED_ROWS))
def test_verify_rows_carry_source_pinned(capsys, fmt):
    code, out, _ = run_cli(capsys, "verify", "thm-ell:7", "--limit", "600",
                           "--source", "product", "--format", fmt)
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 6 and all(r.endswith("product") for r in rows)
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_ROWS[fmt]


# -- scan ------------------------------------------------------------------------

def _record_rings(monkeypatch):
    """Make generating_series record the ring of every call."""
    rings = []
    build = overpartitions.generating_series

    def recording(order, ring, source):
        rings.append(ring)
        return build(order, ring, source)

    monkeypatch.setattr(overpartitions, "generating_series", recording)
    return rings


def test_scan_labels(capsys):
    code, out, _ = run_cli(capsys, "scan", "--amax", "8", "--mods", "8,64",
                           "--limit", "3000")
    assert code == 0
    doc = json.loads(out)
    flags = {(h["claim"]["A"], h["claim"]["B"], h["claim"]["M"]): h["label"]
             for h in doc}
    assert flags[(4, 3, 8)] == "KNOWN"
    assert flags[(8, 7, 64)] == "KNOWN"
    assert flags[(8, 3, 8)] == "CANDIDATE"
    assert all(h["checks"] >= 50 for h in doc)


def test_scan_byte_determinism(capsys):
    args = ("scan", "--amax", "6", "--mods", "4,8", "--limit", "2000")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_scan_table_format(capsys):
    code, out, _ = run_cli(capsys, "scan", "--amax", "6", "--mods", "8",
                           "--limit", "2000", "--format", "table")
    assert code == 0
    assert out.splitlines()[0].split() == ["A", "B", "M", "checks", "label"]
    assert "KNOWN" in out


def test_scan_validation(capsys, monkeypatch):
    # every usage error is found before the series is built
    rings = _record_rings(monkeypatch)
    code, _, err = run_cli(capsys, "scan", "--mods", "3", "--limit", "500")
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, "scan", "--mods", "256", "--limit", "100000")
    assert code == 2 and "scan moduli limited to" in err
    code, _, _ = run_cli(capsys, "scan", "--mods", "x", "--limit", "500")
    assert code == 2
    code, _, err = run_cli(capsys, "scan", "--amax", "0", "--limit", "500")
    assert code == 2 and "amax must be >= 1, got 0" in err
    code, _, err = run_cli(capsys, "scan", "--min-checks", "0")
    assert code == 2 and "min_checks must be >= 1, got 0" in err
    code, out, err = run_cli(capsys, "scan", "--limit", "-1")
    assert code == 2 and out == ""
    assert "--limit must be >= 0" in err
    code, out, err = run_cli(capsys, "scan", "--mods", ",,", "--limit", "500")
    assert code == 2 and out == ""
    assert "at least one modulus from (4, 8, 16, 32, 64, 128)" in err
    # a window of one point cannot reach the default 50 checks of any row
    code, out, err = run_cli(capsys, "scan", "--mods", "4", "--limit", "0")
    assert code == 2 and out == ""
    assert "fewer than min_checks=50" in err
    assert rings == []


# the default scan, test_scan_labels' window (CANDIDATE hits) and a scan
# with no hit at all
SCAN_JSON_RUNS = {
    "default": (),
    "labels": ("--amax", "8", "--mods", "8,64", "--limit", "3000"),
    "no hits": ("--amax", "1", "--mods", "4", "--limit", "100"),
}


@pytest.mark.parametrize("name", sorted(SCAN_JSON_RUNS))
def test_scan_json_is_the_hits_json_dumps(capsys, name):
    argv = ("scan", *SCAN_JSON_RUNS[name])
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    args = cli.build_parser().parse_args(argv)
    mods = [int(m) for m in args.mods.split(",")]
    pbar = overpartitions.by_inversion(args.limit, mod2_ring(7))
    hits = congruence.scan_congruences(pbar, args.amax, mods, args.limit,
                                       args.min_checks)
    assert out == json.dumps(list(map(hit_json_dict, hits)), indent=2) + "\n"
    if name == "no hits":
        assert out == "[]\n"
    else:
        assert {h.label for h in hits} == {"KNOWN", "CANDIDATE"}


@pytest.mark.parametrize("mods, bits", [("4,8,16,32,64", 6), ("8,4", 3),
                                        ("128,4", 7), ("4", 2)])
def test_scan_builds_the_ring_of_its_largest_modulus(capsys, monkeypatch, mods, bits):
    rings = _record_rings(monkeypatch)
    code, _, _ = run_cli(capsys, "scan", "--mods", mods, "--limit", "500")
    assert code == 0
    assert rings == [mod2_ring(bits)]


def test_verify_2adic_builds_the_ring_of_its_largest_modulus(capsys, monkeypatch):
    # verify all reads residues up to mod 128, so 2adic:31 builds at depth 6
    # in Z/2^7, not in the Z/2^32 the source could carry
    rings = _record_rings(monkeypatch)
    built = []
    two_adic = overpartitions.two_adic
    monkeypatch.setattr(overpartitions, "two_adic",
                        lambda order, depth: built.append(depth) or two_adic(order, depth))
    code, _, _ = run_cli(capsys, "verify", "all", "--limit", "1500", "--source", "2adic:31")
    assert code == 0
    assert rings == [mod2_ring(7)]
    assert built == [6]


def test_internal_error_exits_three(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_gen", broken)
    code, out, err = run_cli(capsys, "gen", "--limit", "3")
    assert code == 3 and out == ""
    assert "RuntimeError: boom" in err and "internal error" in err


@pytest.mark.parametrize("argv", [("verify", "all", "--limit", "10"),
                                  ("gen", "--limit", "10", "--mod", "16"),
                                  ("scan", "--limit", "100")])
def test_out_of_memory_exits_two(capsys, monkeypatch, argv):
    # a window too large for memory is a usage error, not a bug: no
    # traceback; the MemoryError is raised by a stand-in, never by a real
    # allocation
    def too_large(order, ring, source="invert"):
        raise MemoryError()

    monkeypatch.setattr(overpartitions, "generating_series", too_large)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: out of memory; try a smaller --limit\n"


# -- JSON ------------------------------------------------------------------------

# every kind of JSON document the CLI writes: name -> (exit code, argv)
JSON_RUNS = {
    "gen": (0, ("gen", "--limit", "300", "--exact", "--format", "json")),
    "ck": (0, ("ck", "--k", "3", "--limit", "50", "--format", "json")),
    "dissect": (0, ("dissect", "--t", "16", "--r", "14", "--mod", "16",
                    "--limit", "3000", "--format", "json")),
    "verify all": (0, ("verify", "all", "--limit", "10000")),
    "verify counterexample": (1, ("verify", "claim:16,14,32", "--limit", "200")),
    "verify past 64 bits": (1, ("verify", "claim:8,7,18446744073709551616",
                                "--limit", "200")),
    "scan": (0, ("scan",)),
    "scan wide": (0, ("scan", "--amax", "128", "--mods", "4,8,16,32,64,128",
                      "--limit", "20000")),
    "scan no hits": (0, ("scan", "--amax", "1", "--mods", "4", "--limit", "100")),
}


@pytest.mark.parametrize("name", sorted(JSON_RUNS))
def test_json_output_is_json_dumps_indent_2(capsys, name):
    want, argv = JSON_RUNS[name]
    code, out, _ = run_cli(capsys, *argv)
    assert code == want
    canon = json.dumps(json.loads(out), indent=2) + "\n"
    # line by line: a failure names its first bad line, and pytest does not
    # diff a megabyte of scan output
    for k, (got, line) in enumerate(zip(out.splitlines(True), canon.splitlines(True))):
        assert got == line, k
    assert len(out) == len(canon)


# -- entry points -------------------------------------------------------------------

def test_module_entrypoint():
    proc = subprocess.run([sys.executable, "-m", "overpart.cli", "gen",
                           "--limit", "0"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "n,pbar\n0,1\n"


def declared_script(name):
    """The "module:function" target of `name` in pyproject's [project.scripts].

    A minimal parse of that one table, since tomllib is not in Python 3.10.
    """
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    in_table = False
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("["):
            in_table = line == "[project.scripts]"
        elif in_table and "=" in line:
            key, value = (part.strip() for part in line.split("=", 1))
            if key.strip('"') == name:
                return value.strip('"')
    raise LookupError(f"no [project.scripts] entry {name!r}")


def test_console_script(tmp_path):
    # a launcher of the form pip and setuptools write for a console script,
    # so the declared entry point is checked without installing the package
    module, func = declared_script("overpart").split(":")
    exe = tmp_path / "overpart"
    exe.write_text(f"#!{sys.executable}\n"
                   "import sys\n"
                   f"from {module} import {func}\n"
                   "if __name__ == '__main__':\n"
                   f"    sys.exit({func}())\n")
    exe.chmod(0o755)
    proc = subprocess.run([str(exe), "gen", "--limit", "3", "--exact"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "n,pbar\n0,1\n1,2\n2,4\n3,8\n"
    # the script's exit code is main's: 1 for a counterexample
    proc = subprocess.run([str(exe), "verify", "claim:16,14,32", "--limit",
                           "200"], capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)[0]["status"] == "Counterexample"


@pytest.mark.skipif(shutil.which("overpart") is None,
                    reason="overpart console script not on PATH "
                           "(package not installed)")
def test_installed_console_script():
    proc = subprocess.run([shutil.which("overpart"), "gen", "--limit", "3",
                           "--exact"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "n,pbar\n0,1\n1,2\n2,4\n3,8\n"
