import pytest


@pytest.fixture(autouse=True)
def _no_ambient_cache_dir(monkeypatch):
    # ``ribbonvol count --max-sum`` given no --cache-dir reads RIBBONVOL_CACHE_DIR
    # from the caller's environment, and so do the CLI tests that run it; a
    # test that wants a cache names one, or sets the variable itself
    monkeypatch.delenv("RIBBONVOL_CACHE_DIR", raising=False)
