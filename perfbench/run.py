"""ribbonvol benchmark: closed loop, one client, one CLI process per job.

    python3 perfbench/run.py --workload engine|counts|census|verify \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is taken from its ``src/``
(``PYTHONPATH``), never from an installed copy.  Jobs run one at a time,
each as a fresh ``python -m ribbonvol.cli ...`` process.  A run replays
the seed's job list (``jobs.job_list``) in whole passes for about
``--seconds`` seconds, at least ``MIN_PASSES`` of them.  Every output is
checked exactly after its pass (``checker.py``).

``--trace 0`` reports the end-to-end metrics.  Each job's time is its
mean over the passes.  On a shared machine the speed of execution
switches between a fast and a slow state every few seconds, and the
share of time in each drifts over minutes.  So every time is also scaled
by the machine's speed during the run: a fixed stdlib-only process,
``yardstick.py``, is timed before every second job, and all reported
times are multiplied by ``YARDSTICK_S`` over its mean.  They read as
seconds on a machine on which the yardstick takes ``YARDSTICK_S``.
``wall_s`` is the wall time of the whole job list at the jobs' scaled
mean times, ``job_p50_s`` and ``job_p75_s`` are quantiles over the jobs
of the list, ``setup_s`` is the scaled median wall time of
``ribbonvol --version`` over a probe before the other jobs, and
``peak_rss_mb`` is the largest child ``ru_maxrss``.

``--trace 1`` runs the list once, each job untraced and then through
``traced_cli.py``, and reports the per-layer metrics of the traced jobs
plus the tracing overhead.

The last stdout line is the JSON result; the lines before it are a
readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import spans
import yardstick
from checker import MALFORMED, Checker
from jobs import WORKLOADS, Job, job_list

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

MIN_PASSES = 2  # each job's time is a mean of at least two
#: What ``yardstick.py`` takes on the machine all reported times are scaled
#: to: about its wall time on a 2.0 GHz 2-vCPU virtual machine when calm.
YARDSTICK_S = 0.1
JOB_TIMEOUT_S = 60.0
START_DEADLINE_S = 120.0  # no job starts later than this into the run

CENSUS_KINDS = ("census-cold", "census-warm")


@dataclass
class Result:
    job: Job
    seconds: float
    code: int
    rss_kb: int
    out: Path
    failure: str | None = None


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], out: Path, timeout: float = JOB_TIMEOUT_S):
    """Run one process to completion; ``(seconds, exit code, ru_maxrss in
    KiB)``.  A process past ``timeout`` is killed and reported as -9."""
    with open(out, "wb") as stdout, open(str(out) + ".err", "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=_env(), cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind, then re-raise
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss


def cli_argv(job: Job, cache: Path) -> list[str]:
    return [sys.executable, "-m", "ribbonvol.cli", *job.command(str(cache))]


def traced_argv(job: Job, cache: Path, span_file: Path) -> list[str]:
    return [sys.executable, str(BENCH / "traced_cli.py"), str(span_file), *job.command(str(cache))]


def probe_setup(work: Path) -> float:
    """Wall time of one no-op CLI process (``--version``)."""
    out = work / "version.out"
    seconds, code, _ = run_child([sys.executable, "-m", "ribbonvol.cli", "--version"], out)
    text = out.read_text(encoding="utf-8", errors="replace")
    if code != 0 or not text.startswith("ribbonvol "):
        raise SystemExit(f"benchmark: set-up failed: --version exited {code} with {text!r}")
    return seconds


def probe_yardstick(work: Path) -> float:
    """Wall time of one ``yardstick.py`` process."""
    out = work / "yardstick.out"
    seconds, code, _ = run_child([sys.executable, str(BENCH / "yardstick.py")], out)
    text = out.read_text(encoding="utf-8", errors="replace").strip()
    if code != 0 or text != yardstick.CHECKSUM:
        raise SystemExit(f"benchmark: yardstick exited {code} with {text!r}")
    return seconds


def check_pass(checker, results: list[Result]) -> None:
    """Fill in ``failure`` for every result of one pass; census jobs are
    checked together, one table at a time."""
    outputs = {}
    for res in results:
        data = res.out.read_bytes() if res.out.exists() else b""
        outputs[id(res)] = data
        if res.failure is None:
            try:
                res.failure = checker.check(res.job, res.code, data)
            except MALFORMED as exc:
                res.failure = f"unreadable output: {exc!r}"
    tables: dict[tuple, list[Result]] = {}
    for res in results:
        if res.job.kind in CENSUS_KINDS:
            spec = res.job.spec
            tables.setdefault((spec["g"], spec["n"], spec["max_sum"]), []).append(res)
    for group in tables.values():
        cold = [r for r in group if r.job.kind == "census-cold"]
        warm = [r for r in group if r.job.kind == "census-warm"]
        if any(r.failure for r in group) or len(cold) != 1:
            for r in group:
                r.failure = r.failure or "another job of this census table failed"
            continue
        try:
            reason = checker.check_census(
                (cold[0].job, outputs[id(cold[0])]), [(r.job, outputs[id(r)]) for r in warm]
            )
        except MALFORMED as exc:
            reason = f"unreadable census output: {exc!r}"
        if reason:
            for r in group:
                r.failure = reason


class Runner:
    def __init__(self, work: Path):
        self.work = work
        self.started = time.perf_counter()
        self.serial = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def run(self, job: Job, cache: Path, span_file: Path | None = None) -> Result:
        self.serial += 1
        out = self.work / f"job{self.serial}.out"
        if self.elapsed() > START_DEADLINE_S:
            return Result(job, 0.0, -1, 0, out, failure="not started: run deadline passed")
        argv = cli_argv(job, cache) if span_file is None else traced_argv(job, cache, span_file)
        seconds, code, rss = run_child(argv, out)
        res = Result(job, seconds, code, rss, out)
        if code == -9 and seconds >= JOB_TIMEOUT_S:
            res.failure = f"timed out after {JOB_TIMEOUT_S:.0f}s"
        return res


def _p75(values: list[float]) -> float:
    return values[0] if len(values) == 1 else statistics.quantiles(values, n=4)[2]


def timed_run(workload: str, seed: int, seconds: float, work: Path, checker):
    runner = Runner(work)
    jobs = job_list(workload, seed)
    setup: list[float] = []
    sticks: list[float] = []
    passes: list[list[Result]] = []
    # Another pass starts only if one of average length would end nearer to
    # ``seconds`` than stopping now does.
    while len(passes) < MIN_PASSES or runner.elapsed() * (1 + 0.5 / len(passes)) <= seconds:
        cache = work / f"cache{len(passes)}"
        done = []
        for index, job in enumerate(jobs):
            if index % 2 == 0:
                setup.append(probe_setup(work))
            else:
                sticks.append(probe_yardstick(work))
            done.append(runner.run(job, cache))
        check_pass(checker, done)
        for res in done:
            res.out.unlink(missing_ok=True)
        shutil.rmtree(cache, ignore_errors=True)
        passes.append(done)
        if runner.elapsed() > START_DEADLINE_S:
            break

    results = [res for done in passes for res in done]
    failed = [r for r in results if r.failure]
    scale = YARDSTICK_S / statistics.fmean(sticks)
    mean = [scale * statistics.fmean(done[i].seconds for done in passes) for i in range(len(jobs))]
    metrics = {
        "wall_s": (sum(mean), "s"),
        "job_p50_s": (statistics.median(mean), "s"),
        "job_p75_s": (_p75(mean), "s"),
        "setup_s": (scale * statistics.median(setup), "s"),
        "peak_rss_mb": (max(r.rss_kb for r in results) / 1024, "MB"),
    }
    extra = {
        "fail_frac": (len(failed) / len(results), "1"),
        "jobs": (len(jobs), "count"),
        "passes": (len(passes), "count"),
        "setup_probes": (len(setup), "count"),
        "yardstick_s": (statistics.fmean(sticks), "s"),
        "unscaled_wall_s": (sum(mean) / scale, "s"),
    }
    if workload == "census":
        for kind, name in (("census-cold", "census_write_p50_s"), ("census-warm", "census_read_p50_s")):
            times = [t for job, t in zip(jobs, mean) if job.kind == kind]
            extra[name] = (statistics.median(times), "s")
    return results, failed, metrics, extra


# ---------------------------------------------------------------------------
# traced run

#: Per-layer metrics read from spans, as ``<span>.<field>``.
SPAN_METRICS = (
    *(
        f"exactmath.{op}.{field}"
        for op in (
            "init", "add", "mul", "divided_difference", "substitute_slots",
            "partial_evaluate", "laurent_to_series",
        )
        for field in ("calls", "self_s")
    ),
    "transform.compute.calls", "transform.compute.self_s",
    "lattice.count.calls", "lattice.count.self_s",
    "lattice.census.calls", "lattice.census.self_s",
    "eo.verify_eo.calls", "eo.residue_sum.calls", "eo.residue_sum.self_s",
    "eo.integrand_terms.self_s",
    "crosscheck.series_identity.calls", "crosscheck.series_identity.self_s",
    "crosscheck.verify_continuous_recursion.self_s", "crosscheck.continuous_rhs.self_s",
    "crosscheck.perimeter_volume.self_s", "crosscheck.golden_laplace.self_s",
    "surface.enumerate_splittings.calls", "surface.enumerate_splittings.self_s",
    "cli.main.self_s",
)
#: Per-layer metrics read from the counters ``traced_cli.py`` keeps.
COUNTER_METRICS = (
    "transform.compute.fresh", "transform.terms", "transform.coeff_bits_max",
    "lattice.rhs_evals", "lattice.census.cache_hits", "lattice.census.bytes_read",
    "lattice.census.bytes_written", "eo.trials", "crosscheck.series_identity.points",
)
#: Where a metric's span or counter name differs from the metric's.
SOURCES = {
    "exactmath.init": "exactmath.EvenLaurentPoly.__init__",
    "exactmath.add": "exactmath.EvenLaurentPoly.__add__",
    "exactmath.mul": "exactmath.EvenLaurentPoly.__mul__",
    "exactmath.substitute_slots": "exactmath.EvenLaurentPoly.substitute_slots",
    "exactmath.partial_evaluate": "exactmath.EvenLaurentPoly.partial_evaluate",
}
PEAK_COUNTERS = ("transform.coeff_bits_max",)


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("bytes_read", "bytes_written")):
        return "bytes"
    if name.endswith("bits_max"):
        return "bits"
    return "count"


def layer_metrics(table: dict, counters: dict, import_s: list[float], overhead: float) -> dict:
    """Per-layer metrics from the summed span rows and counters of the
    traced jobs."""
    out = {}
    for name in SPAN_METRICS:
        span, field = name.rsplit(".", 1)
        out[name] = (table.get(SOURCES.get(span, span), {}).get(field, 0), _unit(name))
    for name in COUNTER_METRICS:
        out[name] = (counters.get(SOURCES.get(name, name), 0), _unit(name))
    calls, fresh = out["transform.compute.calls"][0], out["transform.compute.fresh"][0]
    out["transform.hit_ratio"] = ((calls - fresh) / calls if calls else 0.0, "ratio")
    out["cli.import_s"] = (statistics.median(import_s) if import_s else 0.0, "s")
    out["trace.overhead_frac"] = (overhead, "ratio")
    return out


def traced_run(workload: str, seed: int, work: Path, checker):
    runner = Runner(work)
    plain, traced = [], []
    table: dict[str, dict[str, float]] = {}
    counters: dict[str, float] = {}
    import_s = []
    for index, job in enumerate(job_list(workload, seed)):
        plain.append(runner.run(job, work / "cache-plain"))
        span_file = work / f"spans{index}.json"
        res = runner.run(job, work / "cache-traced", span_file)
        traced.append(res)
        if res.failure is None and res.code == 0:
            names, arrays, job_counters = spans.load(span_file)
            rows = spans.aggregate(names, *arrays)
            import_s.append(rows["cli.import"]["self_s"])
            for name, row in rows.items():
                acc = table.setdefault(name, {"calls": 0, "self_s": 0.0})
                acc["calls"] += row["calls"]
                acc["self_s"] += row["self_s"]
            for key, value in job_counters.items():
                if key in PEAK_COUNTERS:
                    counters[key] = max(counters.get(key, value), value)
                else:
                    counters[key] = counters.get(key, 0) + value
    check_pass(checker, plain)
    check_pass(checker, traced)
    results = plain + traced
    failed = [r for r in results if r.failure]
    overhead = sum(r.seconds for r in traced) / sum(r.seconds for r in plain) - 1
    metrics = layer_metrics(table, counters, import_s, overhead)
    extra = {
        "jobs": (len(plain), "count"),
        "untraced_wall_s": (sum(r.seconds for r in plain), "s"),
        "traced_wall_s": (sum(r.seconds for r in traced), "s"),
    }
    return results, failed, metrics, extra, table


def _layer_shares(table: dict) -> dict[str, float]:
    by_layer: dict[str, float] = {}
    for name, row in table.items():
        layer = name.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + row["self_s"]
    total = sum(by_layer.values()) or 1.0
    return {layer: share / total for layer, share in sorted(by_layer.items())}


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ribbonvol" / "cli.py").is_file():
        print(f"benchmark: no ribbonvol sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    checker = Checker()
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        probe_setup(work)  # untimed: lets Python write its bytecode cache
        if args.trace:
            results, failed, metrics, extra, table = traced_run(args.workload, args.seed, work, checker)
        else:
            results, failed, metrics, extra = timed_run(args.workload, args.seed, args.seconds, work, checker)
            table = None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    if table is not None:
        print("  layer self-time shares: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in _layer_shares(table).items()))
    for res in failed[:10]:
        print(f"  FAILED {' '.join(res.job.argv)}: {res.failure}")
    result = {
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
