"""Start-up cost: each CLI subcommand loads only the modules it uses, and
the package namespace resolves its public names on first access.

Every import check runs in a fresh interpreter and compares its
``sys.modules`` with the modules that interpreter held before the probe
ran, so site hooks of the test environment do not count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ribbonvol

SRC = str(Path(__file__).resolve().parents[1] / "src")
MODULES = {"lattice", "transform", "exactmath", "eo", "crosscheck"}

RUN_CLI = """
import contextlib, io
from ribbonvol.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
if code:
    sys.exit(f"exit status {code}")
"""


def probe(code: str, *args: str) -> tuple[str, set[str]]:
    """Run ``code`` in a fresh interpreter; return its output and the
    modules it loaded."""
    script = f"import sys\nbare = set(sys.modules)\n{code}\nprint(*sorted(set(sys.modules) - bare))"
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    *out, loaded = proc.stdout.split("\n")[:-1]
    return "\n".join(out), set(loaded.split())


def package_modules(names) -> set[str]:
    return {f"ribbonvol.{name}" for name in names}


@pytest.mark.parametrize(
    "argv, unused, loads_json",
    [
        (["--version"], MODULES, False),
        (["count", "--gn", "1,1", "--p", "6"], MODULES - {"lattice"}, False),
        (["count", "--gn", "0,3", "--max-sum", "6"], MODULES - {"lattice"}, False),
        (["count", "--gn", "0,3", "--max-sum", "6", "--cache-dir", "{cache}"], MODULES - {"lattice"}, True),
        (["poly", "L", "1", "2"], {"lattice", "eo", "crosscheck"}, False),
        (["poly", "L", "1", "2", "--format", "json"], {"lattice", "eo", "crosscheck"}, True),
        (["verify", "--suite", "golden"], {"lattice", "eo"}, False),
        (["verify", "--suite", "eo", "--trials", "1"], {"lattice", "crosscheck"}, False),
        (["verify", "--suite", "series", "--level", "4"], {"eo"}, False),
        (["verify", "--suite", "ratio", "--level", "1"], {"lattice", "eo", "crosscheck"}, False),
        (["verify", "--suite", "leading", "--level", "1"], {"lattice", "eo", "crosscheck"}, False),
        (["verify", "--suite", "symplectic", "--trials", "1"], {"lattice", "eo"}, False),
        (["verify", "--suite", "golden", "--format", "jsonl"], {"lattice", "eo"}, True),
        (["intersect", "1", "1"], {"lattice", "eo"}, False),
    ],
    ids=["version", "count", "census-text", "census", "poly", "poly-json", "golden", "eo",
         "series", "ratio", "leading", "symplectic", "golden-jsonl", "intersect"],
)
def test_a_subcommand_loads_only_what_it_uses(tmp_path, argv, unused, loads_json):
    # json is loaded only to read or write JSON: text output and counts do without it
    argv = [arg.format(cache=tmp_path) for arg in argv]
    _, loaded = probe(RUN_CLI, *argv)
    assert "ribbonvol.cli" in loaded
    assert not loaded & package_modules(unused)
    assert "dataclasses" not in loaded
    assert ("json" in loaded) == loads_json


def test_importing_the_package_loads_no_module():
    _, loaded = probe("import ribbonvol")
    assert {m for m in loaded if m.startswith("ribbonvol")} == {"ribbonvol", "ribbonvol._version"}


def test_star_import_binds_every_public_name_without_dataclasses():
    out, loaded = probe("import json\nfrom ribbonvol import *\nprint(json.dumps(dir()))")
    assert set(ribbonvol.__all__) <= set(json.loads(out))
    assert package_modules(MODULES) <= loaded
    assert "dataclasses" not in loaded


def test_cache_control_works_before_any_module_is_loaded():
    code = "import json, ribbonvol\nribbonvol.clear_caches()\nprint(json.dumps(ribbonvol.cache_info()))"
    out, _ = probe(code)
    assert json.loads(out) == {
        "engine": {"laplace": 0, "euclidean": 0, "symplectic": 0},
        "lattice": 0,
    }


def test_every_public_name_resolves_and_is_listed():
    listing = dir(ribbonvol)
    for name in ribbonvol.__all__:
        assert name in listing
        getattr(ribbonvol, name)
    assert ribbonvol.count is sys.modules["ribbonvol.lattice"].count


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ribbonvol.no_such_name
    assert not hasattr(ribbonvol, "RecursionConfig")
    with pytest.raises(ImportError):
        from ribbonvol import no_such_name  # noqa: F401
