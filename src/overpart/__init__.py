"""Exact truncated q-series arithmetic for overpartition congruences.

The overpartition counting function pbar(n) is built three independent
ways (Pochhammer quotient, theta inversion, truncated 2-adic expansion),
classical theta identities are checked coefficientwise, and known
congruences pbar(A*n + B) == 0 (mod 2^j) are verified over explicit
windows or hunted by a scanner.  Everything is exact: arbitrary-precision
integers or integers mod 2^m, never floats.
"""

from .congruence import (CongruenceClaim, ScanHit, VerificationReport, run_checks,
                         scan_congruences, suite_checks, verify_4n_relations,
                         verify_dissection_mod16, verify_mod8_nonsquare, verify_progression)
from .overpartitions import by_inversion, by_product, generating_series, two_adic
from .series import EXACT, CoeffRing, TruncatedSeries, mod2_ring
from .squares import ck_table

__version__ = "0.1.0"

__all__ = [
    "CongruenceClaim", "ScanHit", "VerificationReport", "run_checks", "scan_congruences",
    "suite_checks", "verify_4n_relations", "verify_dissection_mod16",
    "verify_mod8_nonsquare", "verify_progression",
    "by_inversion", "by_product", "generating_series", "two_adic",
    "EXACT", "CoeffRing", "TruncatedSeries", "mod2_ring",
    "ck_table", "__version__",
]
