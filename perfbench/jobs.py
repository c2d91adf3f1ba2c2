"""Seeded job lists for the four workloads.

``job_list(workload, seed)`` is the list of jobs a run replays, the same
on every call.  Each job is one ``ribbonvol`` command line: the program
sees only the generated argv.  Within a workload every list costs about
the same, whatever the seed: the seed permutes, picks output formats and
draws inputs from narrow bands, so that run-to-run spread measures the
program, not the draw.

Nothing is ever generated that finishes without doing work: perimeter
vectors have even totals (an odd total returns 0 at once), ``--trials``
and ``--level`` are never 0, and ``verify --suite leading`` (about 7 s of
pure engine work) is never emitted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

#: Stands for the per-pass census cache directory in an argv.
CACHE = "{cache}"

WORKLOADS = ("engine", "counts", "census", "verify")


@dataclass(frozen=True)
class Job:
    """One CLI call.  ``kind`` selects the output check; ``spec`` carries
    what the check needs (surface type, perimeters, format, ...)."""

    kind: str
    argv: tuple[str, ...]
    spec: dict = field(default_factory=dict, compare=False)

    def command(self, cache_dir: str) -> list[str]:
        return [cache_dir if arg == CACHE else arg for arg in self.argv]


# ---------------------------------------------------------------------------
# engine -- cold ``poly`` jobs.
#
# Why: ``transform`` and ``exactmath`` do ~95% of the work and ``lattice``
# none, so the lean exact core (ROADMAP item 2) and the symmetry-aware
# engine (item 4) land here.  The job set is fixed; the seed only permutes
# it and picks --format.  L(2,4) (2.7 s), L(0,7) (5 s), L(1,6) (10.5 s) and
# L(0,8) (49 s) are left to ``reference.py``: each would take a third or
# more of a pass, and a run could then replay the list too few times for
# steady mean times.

ENGINE_L_TYPES = ((2, 2), (3, 1), (1, 4), (0, 6), (2, 3), (3, 2), (1, 5))
ENGINE_VOLUME_TYPES = ((2, 4), (3, 3), (4, 2))
ENGINE_JOBS = tuple(("L", g, n) for g, n in ENGINE_L_TYPES) + tuple(
    (kind, g, n) for kind in ("VE", "VS") for g, n in ENGINE_VOLUME_TYPES
)
POLY_FORMATS = ("text", "json", "latex")


def poly_job(kind: str, g: int, n: int, fmt: str) -> Job:
    return Job("poly", ("poly", kind, str(g), str(n), "--format", fmt))


def _engine(rng: random.Random) -> list[Job]:
    order = list(ENGINE_JOBS)
    rng.shuffle(order)
    return [poly_job(kind, g, n, rng.choice(POLY_FORMATS)) for kind, g, n in order]


# ---------------------------------------------------------------------------
# counts -- single ``count --p`` jobs of genus 2-4.
#
# Why: deep memoized lattice recursion with ``transform`` idle.  Count
# extraction from L_{g,n} (ROADMAP item 3) should collapse these; the lean
# core (item 2) should leave them unchanged.  Each slot fixes a surface
# type and an even perimeter total (about 0.3-0.8 s a job); the seed
# splits the total among the boundaries and picks the format.  Eight
# slots, so that a run can replay them often enough for steady mean times.

COUNT_SLOTS = (
    (2, 1, 48), (3, 1, 28), (4, 1, 24), (2, 2, 40), (3, 2, 28), (2, 3, 32),
    (2, 1, 40), (3, 1, 24),
)


def count_job(g: int, n: int, p: tuple[int, ...], fmt: str) -> Job:
    argv = ("count", "--gn", f"{g},{n}", "--p", ",".join(map(str, p)), "--format", fmt)
    return Job("count", argv, {"g": g, "n": n, "p": p, "format": fmt})


def _split(rng: random.Random, total: int, n: int) -> tuple[int, ...]:
    """A random ordered composition of ``total`` into ``n`` parts, each at
    least a quarter of an even share, so no part degenerates."""
    floor = max(1, total // (4 * n))
    parts = [floor] * n
    for _ in range(total - floor * n):
        parts[rng.randrange(n)] += 1
    return tuple(parts)


def _counts(rng: random.Random) -> list[Job]:
    jobs = []
    for g, n, total in COUNT_SLOTS:
        jobs.append(count_job(g, n, _split(rng, total, n), rng.choice(("text", "json"))))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# census -- ``count --max-sum`` tables, cold then warm.
#
# Why: the same ``lattice`` layer used for breadth (thousands of small
# counts) with cache writes and reads.  Per-vector extraction (item 3)
# could lose here while it wins on ``counts``, and validation on load
# (item 5) costs the warm reads.  Every table is computed once cold into
# a fresh cache directory, then read warm twice: in the cold job's format
# (the bytes must match) and in one other.  A third of the jobs are cold,
# so job_p75_s falls among the cold writes, not on the cold/warm boundary.
# The seed picks formats and order only: one more unit of bound can make
# a cold table 30% dearer.

CENSUS_TABLES = ((0, 4, 38), (1, 2, 54), (0, 5, 24), (1, 4, 20))
CENSUS_FORMATS = ("csv", "json", "text")


def census_job(g: int, n: int, max_sum: int, fmt: str, cold: bool) -> Job:
    argv = (
        "count", "--gn", f"{g},{n}", "--max-sum", str(max_sum),
        "--format", fmt, "--cache-dir", CACHE,
    )
    spec = {"g": g, "n": n, "max_sum": max_sum, "format": fmt}
    return Job("census-cold" if cold else "census-warm", argv, spec)


def _census(rng: random.Random) -> list[Job]:
    tables = list(CENSUS_TABLES)
    rng.shuffle(tables)
    jobs = []
    for g, n, max_sum in tables:
        jobs.append(census_job(g, n, max_sum, rng.choice(CENSUS_FORMATS), cold=True))
        jobs.append(census_job(g, n, max_sum, jobs[-1].spec["format"], cold=False))
        other = rng.choice([f for f in CENSUS_FORMATS if f != jobs[-1].spec["format"]])
        jobs.append(census_job(g, n, max_sum, other, cold=False))
    return jobs


# ---------------------------------------------------------------------------
# verify -- the consistency suites and ``intersect``.
#
# Why: ``eo.residue_sum`` takes ~98% of an eo job and
# ``exactmath.laurent_to_series`` ~90% of a series job, with the engine
# minor; the ``eo`` and ``crosscheck`` layers are measured nowhere else.
# The list has fixed sizes, so its cost hardly depends on the seed: four
# eo jobs (the dearest, so job_p75_s falls among them), two series jobs
# (in the middle, so job_p50_s falls among them), and four cheap ones.
# The seed picks the suites' --seed, the symplectic trials, the intersect
# type, the formats and the order.  Outputs are compared with digests, so
# every parameter comes from a finite set.

EO_TRIALS = 6
SERIES_LEVEL = 14
SYMPLECTIC_TRIALS = (4, 8, 12, 16)
SUITE_SEEDS = range(10)
INTERSECT_TYPES = ((2, 1), (1, 2), (2, 3), (3, 2), (2, 4), (3, 3), (4, 2), (1, 5))
VERIFY_FORMATS = ("text", "jsonl")


def verify_job(suite: str, fmt: str, trials: int | None = None, seed: int | None = None,
               level: int | None = None) -> Job:
    argv = ["verify", "--suite", suite]
    if trials is not None:
        argv += ["--trials", str(trials), "--seed", str(seed)]
    if level is not None:
        argv += ["--level", str(level)]
    argv += ["--format", fmt]
    spec = {"suite": suite, "format": fmt, "trials": trials, "level": level}
    return Job("verify", tuple(argv), spec)


def intersect_job(g: int, n: int) -> Job:
    return Job("intersect", ("intersect", str(g), str(n)))


def _verify(rng: random.Random) -> list[Job]:
    def fmt():
        return rng.choice(VERIFY_FORMATS)

    jobs = [verify_job("eo", fmt(), trials=EO_TRIALS, seed=s) for s in rng.sample(SUITE_SEEDS, 4)]
    jobs += [verify_job("series", f, level=SERIES_LEVEL) for f in VERIFY_FORMATS]
    jobs += [
        verify_job("symplectic", fmt(), trials=rng.choice(SYMPLECTIC_TRIALS), seed=rng.choice(SUITE_SEEDS))
        for _ in range(2)
    ]
    jobs += [verify_job("golden", fmt()), intersect_job(*rng.choice(INTERSECT_TYPES))]
    rng.shuffle(jobs)
    return jobs


_BUILDERS = {"engine": _engine, "counts": _counts, "census": _census, "verify": _verify}


def job_list(workload: str, seed: int) -> list[Job]:
    """The jobs one run of ``workload`` replays for ``seed``; deterministic."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def digest_jobs() -> list[Job]:
    """Every poly, verify and intersect job the generator can emit; their
    outputs are pinned by ``digests.json``."""
    jobs = [poly_job(k, g, n, fmt) for k, g, n in ENGINE_JOBS for fmt in POLY_FORMATS]
    for fmt in VERIFY_FORMATS:
        jobs += [verify_job("eo", fmt, trials=EO_TRIALS, seed=s) for s in SUITE_SEEDS]
        jobs.append(verify_job("series", fmt, level=SERIES_LEVEL))
        for trials in SYMPLECTIC_TRIALS:
            jobs += [verify_job("symplectic", fmt, trials=trials, seed=s) for s in SUITE_SEEDS]
        jobs.append(verify_job("golden", fmt))
    jobs += [intersect_job(g, n) for g, n in INTERSECT_TYPES]
    return jobs


def digest_key(job: Job) -> str:
    return " ".join(job.argv)


def bridge_types() -> list[tuple[int, int]]:
    """Surface types whose counts are checked against L_{g,n}; the terms
    of each L_{g,n} are pinned by ``digests.json``."""
    return sorted({(g, n) for g, n, _ in COUNT_SLOTS + CENSUS_TABLES})


def laplace_key(g: int, n: int) -> str:
    return f"laplace-terms {g} {n}"
