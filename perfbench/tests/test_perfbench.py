"""Self-tests of the benchmark: generator, checker, span arithmetic, tracing.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import hashlib
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from checker import Checker, census_sample, edge_coeff, parse_census, verify_rows  # noqa: E402

SEEDS = range(40)


def _all_jobs():
    for workload in jobs.WORKLOADS:
        for seed in SEEDS:
            yield workload, jobs.job_list(workload, seed)


def test_generator_is_deterministic_per_seed():
    for workload in jobs.WORKLOADS:
        assert [j.argv for j in jobs.job_list(workload, 7)] == [
            j.argv for j in jobs.job_list(workload, 7)
        ]
        assert [j.argv for j in jobs.job_list(workload, 7)] != [
            j.argv for j in jobs.job_list(workload, 8)
        ]


def test_engine_poly_job_set_is_fixed():
    def job_set(seed):
        return sorted(j.argv[1:4] for j in jobs.job_list("engine", seed) if j.kind == "poly")

    assert all(job_set(seed) == job_set(0) for seed in SEEDS)


def test_generator_emits_no_vacuous_job():
    universe = {jobs.digest_key(j) for j in jobs.digest_jobs()}
    for workload, pass_list in _all_jobs():
        assert pass_list
        for job in pass_list:
            argv = job.argv
            if job.kind == "count":
                assert sum(job.spec["p"]) % 2 == 0 and min(job.spec["p"]) > 0
            if job.kind.startswith("census"):
                assert job.spec["max_sum"] > 0
            for flag in ("--trials", "--level"):
                if flag in argv:
                    assert int(argv[argv.index(flag) + 1]) > 0
            assert "leading" not in argv
            if job.kind in ("poly", "verify", "intersect"):
                assert jobs.digest_key(job) in universe


def test_census_warm_reads_follow_their_cold_write():
    for seed in SEEDS:
        cold = {}
        for job in jobs.job_list("census", seed):
            key = (job.spec["g"], job.spec["n"], job.spec["max_sum"])
            assert (job.kind == "census-cold") == (key not in cold)
            cold.setdefault(key, job.spec["format"])
        warm = [j for j in jobs.job_list("census", seed) if j.kind == "census-warm"]
        assert len(warm) == 2 * len(cold)
        same = [j for j in warm if j.spec["format"] == cold[(j.spec["g"], j.spec["n"], j.spec["max_sum"])]]
        assert len(same) == len(cold)


# -- checker -----------------------------------------------------------------


def test_edge_coefficients_match_the_public_series():
    from ribbonvol.exactmath import EvenLaurentPoly, laurent_to_series

    order = 12
    for a in range(-4, 5):
        series = laurent_to_series(EvenLaurentPoly.monomial(1, (a,)), order)
        for m in range(order + 1):
            assert Fraction(edge_coeff(a, m)) == series.terms.get((m,), 0), (a, m)


@pytest.mark.parametrize(
    "g,n,p", [(1, 1, (10,)), (0, 4, (3, 5, 2, 6)), (1, 2, (7, 5)), (2, 1, (12,)), (0, 5, (2, 3, 5, 1, 3))]
)
def test_bridge_agrees_with_the_recursion(g, n, p):
    from ribbonvol.lattice import count

    assert Checker().bridge_count(g, n, p) == count(g, n, p)


def test_every_bridge_type_is_pinned():
    digests = Checker().digests
    assert all(jobs.laplace_key(g, n) in digests for g, n in jobs.bridge_types())


def test_checker_rejects_an_altered_laplace_table(monkeypatch):
    import ribbonvol.transform as transform

    job = jobs.count_job(2, 1, (12,), "text")
    good = Checker().bridge_count(2, 1, (12,))
    out = f"{good.numerator}/{good.denominator}\n".encode()
    assert Checker().check(job, 0, out) is None

    real = transform.compute

    def altered(config, g, n):
        poly = real(config, g, n)
        exps = min(poly.terms)
        return type(poly)(poly.arity, {**poly.terms, exps: poly.terms[exps] + 1})

    monkeypatch.setattr(transform, "compute", altered)
    assert "pinned" in Checker().check(job, 0, out)
    # an unpinned table is rejected too
    assert "pinned" in Checker(digests={}).check(job, 0, out)


def test_checker_accepts_and_rejects_counts():
    checker = Checker()
    job = jobs.count_job(2, 1, (12,), "text")
    good = checker.bridge_count(2, 1, (12,))
    assert checker.check(job, 0, f"{good.numerator}/{good.denominator}\n".encode()) is None
    bad = good + Fraction(1, good.denominator * 7)
    assert checker.check(job, 0, f"{bad.numerator}/{bad.denominator}\n".encode())
    assert checker.check(job, 1, b"")


def test_checker_rejects_a_perturbed_census_row():
    from ribbonvol.lattice import census

    table = census(0, 4, 12)
    text = table.csv_text()
    checker = Checker()
    cold = jobs.census_job(0, 4, 12, "csv", cold=True)
    warm = [jobs.census_job(0, 4, 12, fmt, cold=False) for fmt in ("csv", "text")]
    text_out = "".join(f"{' '.join(map(str, p))}\t{v.numerator}/{v.denominator}\n" for p, v in table.rows())
    outputs = [text.encode(), text_out.encode()]
    assert checker.check_census((cold, text.encode()), list(zip(warm, outputs))) is None

    p = census_sample(cold.spec, dict(table.rows()))[0]
    value = table.entries[p]
    row = f"0,4,{','.join(map(str, p))},{value.numerator},{value.denominator}"
    bumped = f"0,4,{','.join(map(str, p))},{value.numerator + 1},{value.denominator}"
    assert row in text
    perturbed = text.replace(row, bumped).encode()
    assert parse_census("csv", perturbed.decode(), 0, 4) != parse_census("csv", text, 0, 4)
    # the cold table and a warm read must both be exact
    assert checker.check_census((cold, perturbed), list(zip(warm, [perturbed, outputs[1]])))
    assert checker.check_census((cold, text.encode()), list(zip(warm, [perturbed, outputs[1]])))


def test_checker_rejects_an_altered_digest():
    job = jobs.poly_job("L", 1, 1, "text")
    out = b"(1/128) t1^2 + ...\n"
    digest = hashlib.sha256(out).hexdigest()
    assert Checker(digests={jobs.digest_key(job): digest}).check(job, 0, out) is None
    altered = digest[:-1] + ("0" if digest[-1] != "0" else "1")
    assert Checker(digests={jobs.digest_key(job): altered}).check(job, 0, out)
    assert Checker(digests={jobs.digest_key(job): digest}).check(job, 0, out + b" ")
    assert Checker(digests={}).check(job, 0, out)


def test_verify_rows_reject_vacuous_passes():
    job = jobs.verify_job("eo", "text", trials=3, seed=0)
    row = "ok   eo         residues[laplace](0,3)   {} trials"
    assert verify_rows(job, "\n".join([row.format(3)] * 15) + "\n") is None
    assert verify_rows(job, "\n".join([row.format(0)] * 15) + "\n")
    assert verify_rows(job, "\n".join([row.format(3)] * 14) + "\n")
    assert verify_rows(job, "")


# -- spans -------------------------------------------------------------------


def test_self_times_on_a_nested_tree():
    #  root [0, 10]
    #  |- a [1, 4]
    #  |  `- leaf [2, 3]
    #  `- a [5, 9]
    #     `- leaf [6, 6.5]
    tree = [("root", 0, 10, -1), ("a", 1, 4, 0), ("leaf", 2, 3, 1), ("a", 5, 9, 0), ("leaf", 6, 6.5, 3)]
    names = ["root", "a", "leaf"]
    ids = [names.index(t[0]) for t in tree]
    parent = [t[3] for t in tree]
    start = [t[1] for t in tree]
    end = [t[2] for t in tree]
    assert spans.self_times(parent, start, end) == [3, 2, 1, 3.5, 0.5]
    rows = spans.aggregate(names, ids, parent, start, end)
    assert rows == {
        "root": {"calls": 1, "self_s": 3},
        "a": {"calls": 2, "self_s": 5.5},
        "leaf": {"calls": 2, "self_s": 1.5},
    }


def test_span_log_round_trip(tmp_path):
    log = spans.SpanLog()
    outer = log.open(log.name_id("outer"))
    log.close(log.open(log.name_id("inner")))
    log.close(outer)
    log.add("hits", 2)
    log.dump(tmp_path / "s.json")
    names, arrays, counters = spans.load(tmp_path / "s.json")
    assert names == ["outer", "inner"] and counters == {"hits": 2}
    assert list(arrays[0]) == [0, 1] and list(arrays[1]) == [-1, 0]


# -- traced run ----------------------------------------------------------------


def _traced(tmp_path, job, name):
    runner = run.Runner(tmp_path)
    span_file = tmp_path / f"{name}.json"
    res = runner.run(job, tmp_path / "cache", span_file)
    assert res.code == 0, Path(f"{res.out}.err").read_text()
    plain = runner.run(job, tmp_path / "plain")
    assert res.out.read_bytes() == plain.out.read_bytes()
    names, arrays, counters = spans.load(span_file)
    table = spans.aggregate(names, *arrays)
    return run.layer_metrics(table, counters, [table["cli.import"]["self_s"]], 0.0)


def _calls(metrics, layer):
    return sum(v for k, (v, unit) in metrics.items() if k.startswith(layer) and k.endswith(".calls"))


def test_traced_run_shows_the_bypasses(tmp_path):
    engine = _traced(tmp_path, jobs.poly_job("L", 2, 2, "json"), "engine")
    assert engine["lattice.count.calls"][0] == 0
    assert engine["exactmath.init.calls"][0] > 0 and engine["transform.compute.fresh"][0] > 0

    counts = _traced(tmp_path, jobs.count_job(2, 1, (30,), "text"), "counts")
    assert _calls(counts, "exactmath") == 0 and _calls(counts, "transform") == 0
    assert counts["lattice.count.calls"][0] == 1 and counts["lattice.rhs_evals"][0] > 0

    cold = _traced(tmp_path, jobs.census_job(0, 4, 16, "csv", cold=True), "cold")
    warm = _traced(tmp_path, jobs.census_job(0, 4, 16, "json", cold=False), "warm")
    for metrics in (cold, warm):
        assert _calls(metrics, "exactmath") == 0 and _calls(metrics, "transform") == 0
    assert cold["lattice.census.cache_hits"][0] == 0 and cold["lattice.census.bytes_written"][0] > 0
    assert warm["lattice.census.cache_hits"][0] == 1 and warm["lattice.census.bytes_read"][0] > 0
    assert warm["lattice.count.calls"][0] == 0


def test_yardstick_prints_its_checksum():
    import yardstick

    assert yardstick.main() == yardstick.CHECKSUM
