"""A standing mutation gate for ``ribbonvol verify``.

Each mutant is one exact text edit to a copy of ``src/``.  The default
``verify`` run on that copy must exit 1, and each suite named in the
mutant's row must fail at least the recorded number of rows.  The four
mutants that change the engine's tables run a second time with the orbit
guard ``transform._check_orbits`` switched off, which measures the suites'
own comparisons, with a kill set of their own.  The counts
are lower bounds: detection may grow, but it may not shrink unseen.  The
old text must occur exactly once in its file, so a refactor that moves or
rewrites it fails here, and the mutant is restated with it.
"""

import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# name -> (file, old text, new text, {suite: least failing rows})
MUTANTS = {
    "perimeter factor 2^(2a)": (
        "crosscheck.py", "Fraction(2 ** (2 * a + 1),", "Fraction(2 ** (2 * a),", {"symplectic": 2}
    ),
    "simplex weight without its 2": (
        "crosscheck.py", "2 * c * weight)", "c * weight)", {"symplectic": 1}
    ),
    "edge term without its 2": (
        "crosscheck.py", "2 * c * comb(m, 2 * i)", "c * comb(m, 2 * i)", {"symplectic": 2}
    ),
    "edge coefficient without its 2": (
        "exactmath.py", "return 2 * sum(", "return sum(", {"series": 4}
    ),
    "N_{0,3} = 2": (
        "lattice.py",
        "if (g, n) == (0, 3):\n        return Fraction(1)",
        "if (g, n) == (0, 3):\n        return Fraction(2)",
        {"series": 3},
    ),
    "symplectic pair weight 1": (
        "eo.py", "pair_weight=Fraction(1, 2),", "pair_weight=Fraction(1),", {"eo": 4}
    ),
    "N_{1,1} over 24": (
        "lattice.py", "Fraction(p[0] ** 2 - 4, 48)", "Fraction(p[0] ** 2 - 4, 24)", {"series": 2}
    ),
    "lattice right-hand side without its 2": (
        "lattice.py", "Fraction(num, 2 * den * p1)", "Fraction(num, den * p1)", {"series": 2}
    ),
    "lattice p_1 - p_j term dropped": (
        "lattice.py", "        terms.append(_weighted(column, p1 - pj))\n", "", {"series": 2}
    ),
    # the class route, which ``count`` takes past a type's grid
    "class base rows shifted": (
        "lattice.py",
        "        b.append(b[-1] * (u - (2 * i + r) ** 2))",
        "        b.append(b[-1] * (u - (2 * i + r + 2) ** 2))",
        {"series": 2},
    ),
    "class table skips first differences": (
        "lattice.py", "for level in range(1, len(line)):", "for level in range(2, len(line)):", {"series": 2}
    ),
    "class evaluator reads its columns a level low": (
        "lattice.py", "map(mul, term, column[m])", "map(mul, term, column[m - 1])", {"series": 2}
    ),
    # the engine mutants, with the orbit guard on, as ``verify`` ships
    "SYMPLECTIC.base_03 x2": (
        "transform.py", "Fraction(-1, 8)", "Fraction(-1, 4)", {"ratio": 13, "eo": 3, "symplectic": 1}
    ),
    "j-term weight (2a_j+1), not |2a_j+1|": (
        "transform.py", "abs(2 * aj + 1)", "(2 * aj + 1)",
        {"golden": 4, "leading": 12, "series": 2, "eo": 3},
    ),
    "genus term dropped": (
        "transform.py",
        "if g >= 1:\n        up = _table",
        "if False:\n        up = _table",
        {"golden": 3, "ratio": 6, "leading": 6, "series": 1, "eo": 6, "symplectic": 1},
    ),
    "splitting weight always 1": (
        "surface.py",
        "(sp, 1 if sp[:2] == sp[2:] else 2)",
        "(sp, 1)",
        {"golden": 1, "ratio": 8, "leading": 8},
    ),
}

# the orbit guard switched off: ``_check_orbits`` returns at once
GUARD_OFF = ("transform.py", "    if n == 1:\n        return\n    copies = 0", "    return\n    copies = 0")

# engine mutant -> {suite: least failing rows} with the guard off
GUARD_OFF_KILLS = {
    "SYMPLECTIC.base_03 x2": {"ratio": 12, "eo": 1},
    "j-term weight (2a_j+1), not |2a_j+1|": {"golden": 4, "series": 2, "eo": 2},
    "genus term dropped": {"golden": 3, "series": 1, "eo": 6, "symplectic": 1},
    "splitting weight always 1": {"golden": 1},
}


def _verify(src: Path) -> tuple[int, Counter, int]:
    """Exit code, failing rows per suite and row count of the default
    ``verify --format jsonl`` run with ``src`` as the package source."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "ribbonvol.cli", "verify", "--format", "jsonl"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    return proc.returncode, Counter(row["suite"] for row in rows if not row["ok"]), len(rows)


def _copy(tmp_path: Path, *edits: tuple[str, str, str]) -> Path:
    """A copy of ``src/`` with each (file, old text, new text) edit applied."""
    copy = tmp_path / "src"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    for file, old, new in edits:
        path = copy / "ribbonvol" / file
        text = path.read_text(encoding="utf-8")
        assert text.count(old) == 1, f"{file}: {old!r} must occur exactly once"
        path.write_text(text.replace(old, new), encoding="utf-8")
    return copy


def test_the_unmutated_copy_passes(tmp_path):
    code, failed, rows = _verify(_copy(tmp_path))
    assert (code, failed, rows) == (0, Counter(), 55)


def test_the_unmutated_copy_passes_with_the_guard_off(tmp_path):
    code, failed, rows = _verify(_copy(tmp_path, GUARD_OFF))
    assert (code, failed, rows) == (0, Counter(), 55)


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_fails_verify(name, tmp_path):
    file, old, new, kills = MUTANTS[name]
    code, failed, rows = _verify(_copy(tmp_path, (file, old, new)))
    assert code == 1, name
    assert rows == 55, name
    for suite, least in kills.items():
        assert failed[suite] >= least, (name, suite, dict(failed))


@pytest.mark.parametrize("name", sorted(GUARD_OFF_KILLS))
def test_engine_mutant_fails_verify_with_the_guard_off(name, tmp_path):
    file, old, new, _ = MUTANTS[name]
    kills = GUARD_OFF_KILLS[name]
    code, failed, rows = _verify(_copy(tmp_path, (file, old, new), GUARD_OFF))
    assert code == 1, name
    assert rows == 55, name
    for suite, least in kills.items():
        assert failed[suite] >= least, (name, suite, dict(failed))
