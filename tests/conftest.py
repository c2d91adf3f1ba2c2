import pytest


@pytest.fixture(autouse=True)
def _no_ambient_cache_dir(monkeypatch):
    # ``census`` given no ``cache_dir`` reads RIBBONVOL_CACHE_DIR from the
    # caller's environment; a test that wants a cache names one, or sets the
    # variable itself
    monkeypatch.delenv("RIBBONVOL_CACHE_DIR", raising=False)
