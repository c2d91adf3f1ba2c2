"""Exact checks of every job's output.

* ``count`` values, and a seeded sample of every census table, are
  compared with the series bridge of the paper,

      (-1)^n prod(p) N_{g,n}(p) = sum over terms c u^a of L_{g,n}:  c prod_j e_{a_j}(p_j),

  where ``e_a(m)`` is the x^m coefficient of t^{2a} (t^2 - 1)/2 under
  t = (x+1)/(x-1), computed here from its binomial closed form.  (1, 1)
  uses ``oracle_n11`` instead.  L_{g,n} comes from the engine of the code
  under test, an independent route from the lattice recursion, and must
  match the SHA-256 of its terms pinned in ``digests.json``: once counts
  are themselves read off L_{g,n}, the pin is what keeps this check from
  comparing the program with itself.
* A census table must list exactly the nondecreasing vectors with sum at
  most the bound, vanish at odd totals, read back warm byte-identical to
  the cold write in the same format, and agree across formats.
* ``poly``, ``verify`` and ``intersect`` stdout must match the SHA-256
  digests in ``digests.json`` (byte-identical output), and ``verify`` must
  report the expected number of rows, all ``ok``, each with the requested
  nonzero number of trials.

Each check returns None or a one-line reason.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from fractions import Fraction
from functools import cache
from math import comb, prod
from pathlib import Path

from jobs import CENSUS_FORMATS, Job, digest_key, laplace_key

DIGESTS = Path(__file__).resolve().parent / "digests.json"

#: Rows each suite prints (3 curves x 5 types for eo, and so on).
VERIFY_ROWS = {"eo": 15, "series": 4, "symplectic": 2, "golden": 6}
CENSUS_SAMPLE = 24
#: What parsing a malformed output raises; the job then fails its check.
MALFORMED = (ValueError, KeyError, IndexError, TypeError)

_TEXT_ROW = re.compile(r"^(ok  |FAIL) (\S+)\s+(\S+)\s+(.*)$")


class TableMismatch(Exception):
    """L_{g,n} of the code under test is not the pinned table."""


def laplace_digest(terms: dict) -> str:
    """SHA-256 of the sorted terms ``{exponents: Fraction}`` of a polynomial."""
    rows = sorted((list(exps), c.numerator, c.denominator) for exps, c in terms.items())
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


@cache
def edge_coeff(a: int, m: int) -> int:
    """x^m coefficient of t^{2a} (t^2 - 1)/2 with t = (x+1)/(x-1).

    For a >= 0 the series is 2x (1+x)^{2a} (1-x)^{-(2a+2)}; for a = -b < 0
    it is 2x (1-x)^{2b-2} (1+x)^{-2b}.
    """
    if m < 1:
        return 0
    if a >= 0:
        return 2 * sum(
            comb(2 * a, i) * comb(2 * a + m - i, 2 * a + 1) for i in range(min(2 * a, m - 1) + 1)
        )
    b = -a
    return 2 * (-1) ** (m - 1) * sum(
        comb(2 * b - 2, i) * comb(2 * b + m - 2 - i, 2 * b - 1)
        for i in range(min(2 * b - 2, m - 1) + 1)
    )


class Checker:
    """Checks job outputs; needs ``ribbonvol`` importable (``src`` on the path)."""

    def __init__(self, digests: dict[str, str] | None = None):
        if digests is None:
            digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
        self.digests = digests
        self._laplace = {}

    # -- values -------------------------------------------------------------

    def bridge_count(self, g: int, n: int, p: tuple[int, ...]) -> Fraction:
        """N_{g,n}(p) read off L_{g,n} through the series bridge; raises
        ``TableMismatch`` unless L_{g,n} matches its pinned digest."""
        from ribbonvol.lattice import oracle_n11
        from ribbonvol.transform import LAPLACE, compute

        if (g, n) == (1, 1):
            return oracle_n11(p[0])
        if (g, n) not in self._laplace:
            terms = compute(LAPLACE, g, n).terms
            pinned = self.digests.get(laplace_key(g, n)) == laplace_digest(terms)
            self._laplace[(g, n)] = terms.items() if pinned else None
        if self._laplace[(g, n)] is None:
            raise TableMismatch(f"L_{{{g},{n}}} differs from its pinned digest")
        total = sum(
            c * prod(edge_coeff(a, m) for a, m in zip(exps, p))
            for exps, c in self._laplace[(g, n)]
        )
        return (-1) ** n * Fraction(total) / prod(p)

    # -- per job ------------------------------------------------------------

    def check(self, job: Job, code: int, out: bytes) -> str | None:
        """Checks that need only this job's output (census tables are
        finished by ``check_census``)."""
        if code != 0:
            return f"exit code {code}"
        if job.kind in ("poly", "intersect"):
            return self._digest(job, out)
        if job.kind == "verify":
            return self._digest(job, out) or verify_rows(job, out.decode())
        if job.kind == "count":
            try:
                return self._count(job, out.decode())
            except TableMismatch as exc:
                return str(exc)
        return None

    def _digest(self, job: Job, out: bytes) -> str | None:
        want = self.digests.get(digest_key(job))
        if want is None:
            return "no recorded digest"
        if hashlib.sha256(out).hexdigest() != want:
            return "stdout differs from the recorded digest"
        return None

    def _count(self, job: Job, text: str) -> str | None:
        spec = job.spec
        if spec["format"] == "json":
            doc = json.loads(text)
            if (doc["g"], doc["n"], tuple(doc["p"])) != (spec["g"], spec["n"], spec["p"]):
                return "json echoes the wrong arguments"
            value = doc["value"]
        else:
            value = text.removesuffix("\n")
        expected = self.bridge_count(spec["g"], spec["n"], spec["p"])
        if value != f"{expected.numerator}/{expected.denominator}":
            return f"N{spec['p']} = {value!r}, bridge gives {expected}"
        return None

    # -- census tables --------------------------------------------------------

    def check_census(self, cold: tuple[Job, bytes], warm: list[tuple[Job, bytes]]) -> str | None:
        """One table: its cold output against the bridge, every warm read
        against the cold one."""
        try:
            return self._census(cold, warm)
        except TableMismatch as exc:
            return str(exc)

    def _census(self, cold, warm) -> str | None:
        job, out = cold
        spec = job.spec
        rows = parse_census(spec["format"], out.decode(), spec["g"], spec["n"])
        want = set(ascending_vectors(spec["n"], spec["max_sum"]))
        if set(rows) != want:
            return f"census rows differ from the {len(want)} vectors with sum <= {spec['max_sum']}"
        if any(v for p, v in rows.items() if sum(p) % 2):
            return "nonzero count at an odd total"
        for p in census_sample(spec, rows):
            if rows[p] != self.bridge_count(spec["g"], spec["n"], p):
                return f"census N{p} = {rows[p]} disagrees with the bridge"
        for warm_job, warm_out in warm:
            fmt = warm_job.spec["format"]
            if fmt == spec["format"]:
                if warm_out != out:
                    return f"warm {fmt} read is not byte-identical to the cold write"
            elif parse_census(fmt, warm_out.decode(), spec["g"], spec["n"]) != rows:
                return f"warm {fmt} read disagrees with the cold table"
        return None


def verify_rows(job: Job, text: str) -> str | None:
    """Rows of a verify output: the expected count, all ok, none vacuous."""
    spec = job.spec
    lines = text.splitlines()
    if spec["format"] == "jsonl":
        rows = [json.loads(line) for line in lines]
    else:
        rows = []
        for line in lines:
            match = _TEXT_ROW.match(line)
            if not match:
                return f"unexpected line {line!r}"
            rows.append({"ok": match[1] == "ok  ", "suite": match[2], "detail": match[4]})
    if len(rows) != VERIFY_ROWS[spec["suite"]]:
        return f"{len(rows)} rows, expected {VERIFY_ROWS[spec['suite']]}"
    for row in rows:
        if not row["ok"] or row["suite"] != spec["suite"]:
            return f"row not ok: {row}"
        if spec["trials"] is not None and not row["detail"].startswith(f"{spec['trials']} "):
            return f"row checked {row['detail']!r}, expected {spec['trials']} trials"
        if spec["suite"] == "series" and int(row["detail"].split()[0]) <= 0:
            return "series row checked no lattice points"
    return None


def census_sample(spec: dict, rows) -> list[tuple[int, ...]]:
    """The seeded sample of even-total rows checked against the bridge."""
    rng = random.Random(f"census:{spec['g']}:{spec['n']}:{spec['max_sum']}")
    even = sorted(p for p in rows if sum(p) % 2 == 0)
    return rng.sample(even, min(CENSUS_SAMPLE, len(even)))


def ascending_vectors(n: int, max_sum: int, floor: int = 1):
    """Nondecreasing positive n-vectors with sum <= max_sum."""
    if n == 0:
        yield ()
        return
    for first in range(floor, max_sum // n + 1):
        for tail in ascending_vectors(n - 1, max_sum - first, first):
            yield (first,) + tail


def parse_census(fmt: str, text: str, g: int, n: int) -> dict[tuple[int, ...], Fraction]:
    """Rows of one census output in csv, json or text form."""
    if fmt not in CENSUS_FORMATS:
        raise ValueError(f"unknown census format {fmt}")
    rows: dict[tuple[int, ...], Fraction] = {}
    if fmt == "json":
        doc = json.loads(text)
        if doc["format"] != "ribbonvol-census" or (doc["g"], doc["n"]) != (g, n):
            raise ValueError("wrong census header")
        for p, value in doc["entries"]:
            rows[tuple(p)] = Fraction(value)
        return rows
    lines = text.splitlines()
    if fmt == "csv":
        header = ["g", "n"] + [f"p_{j + 1}" for j in range(n)] + ["numerator", "denominator"]
        if lines[0] != ",".join(header):
            raise ValueError("wrong csv header")
        for line in lines[1:]:
            fields = [int(x) for x in line.split(",")]
            if fields[:2] != [g, n] or len(fields) != n + 4:
                raise ValueError(f"bad csv row {line!r}")
            rows[tuple(fields[2 : 2 + n])] = Fraction(fields[-2], fields[-1])
        return rows
    for line in lines:
        perimeters, value = line.split("\t")
        rows[tuple(int(x) for x in perimeters.split())] = Fraction(value)
    return rows
