import pytest

from overpart import EXACT, TruncatedSeries, by_inversion, generating_series, mod2_ring


@pytest.fixture(scope="session")
def pbar_mod32_20k():
    """pbar mod 2^32 to order 20000; enough for every congruence suite."""
    return generating_series(20000, mod2_ring(32))


@pytest.fixture(scope="session")
def pbar_exact_5000():
    """Exact pbar to order 5000; the construction-equivalence anchor."""
    return by_inversion(5000, EXACT)


@pytest.fixture
def series_products(monkeypatch):
    """A list that gains one entry per series-by-series product formed
    while the test runs; products by an int are not counted."""
    products = []
    mul = TruncatedSeries.__mul__

    def counting(a, b):
        if isinstance(b, TruncatedSeries):
            products.append(b.order)
        return mul(a, b)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counting)
    monkeypatch.setattr(TruncatedSeries, "__rmul__", counting)
    return products


@pytest.fixture
def series_divisions(monkeypatch):
    """A list that gains one entry, the divisor's order, per series-by-series
    division formed while the test runs; invert() is one such division."""
    divisions = []
    div = TruncatedSeries.__truediv__

    def counting(a, b):
        if isinstance(b, TruncatedSeries):
            divisions.append(b.order)
        return div(a, b)

    monkeypatch.setattr(TruncatedSeries, "__truediv__", counting)
    return divisions
