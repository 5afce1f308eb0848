import pytest

from overpart import EXACT, by_inversion, generating_series, mod2_ring


@pytest.fixture(scope="session")
def pbar_mod32_20k():
    """pbar mod 2^32 to order 20000; enough for every congruence suite."""
    return generating_series(20000, mod2_ring(32))


@pytest.fixture(scope="session")
def pbar_exact_5000():
    """Exact pbar to order 5000; the construction-equivalence anchor."""
    return by_inversion(5000, EXACT)
