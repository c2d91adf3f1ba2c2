import gc
import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from ribbonvol import cli, clear_caches, crosscheck, eo, lattice, transform
from ribbonvol.cli import main
from ribbonvol.exactmath import EvenLaurentPoly
from ribbonvol.surface import stable_types

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_count_single(capsys):
    code, out = run(capsys, "count", "--gn", "1,1", "--p", "6")
    assert code == 0
    assert out == "2/3\n"


def test_count_single_json(capsys):
    code, out = run(capsys, "count", "--gn", "0,3", "--p", "2,3,5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"g": 0, "n": 3, "p": [2, 3, 5], "value": "1/1"}


def test_count_census_csv(capsys):
    code, out = run(capsys, "count", "--gn", "1,1", "--max-sum", "8", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "g,n,p_1,numerator,denominator"
    assert "1,1,6,2,3" in lines
    # every byte of a three-boundary table
    assert run(capsys, "count", "--gn", "0,3", "--max-sum", "6", "--format", "csv") == (
        0,
        "g,n,p_1,p_2,p_3,numerator,denominator\n"
        "0,3,1,1,1,0,1\n0,3,1,1,2,1,1\n0,3,1,1,3,0,1\n0,3,1,1,4,1,1\n"
        "0,3,1,2,2,0,1\n0,3,1,2,3,1,1\n0,3,2,2,2,1,1\n",
    )


def test_count_census_json_and_cache(capsys, tmp_path):
    code, out = run(
        capsys,
        "count", "--gn", "0,3", "--max-sum", "6",
        "--format", "json", "--cache-dir", str(tmp_path),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["format"] == "ribbonvol-census"
    assert list(tmp_path.glob("census-*.json"))
    # second run must be byte-identical (and served from the cache)
    code2, out2 = run(
        capsys,
        "count", "--gn", "0,3", "--max-sum", "6",
        "--format", "json", "--cache-dir", str(tmp_path),
    )
    assert (code2, out2) == (code, out)


def test_count_census_ignores_a_malformed_cache(capsys, tmp_path):
    argv = ["count", "--gn", "1,1", "--max-sum", "4", "--cache-dir", str(tmp_path)]
    code, expected = run(capsys, *argv)
    assert (code, expected) == (0, "1\t0/1\n2\t0/1\n3\t0/1\n4\t1/4\n")
    target = tmp_path / "census-g1-n1-P4.json"
    good = json.loads(target.read_text())
    for entries in ([[[2], "1/2"]], [[p, "oops"] for p, _ in good["entries"]]):
        target.write_text(json.dumps({**good, "entries": entries}))
        assert run(capsys, *argv) == (0, expected)


def test_count_census_recomputes_a_cache_too_deep_to_decode(capsys, tmp_path):
    # the decoder gives up on this file with a RecursionError
    argv = ["count", "--gn", "0,3", "--max-sum", "6", "--cache-dir", str(tmp_path)]
    target = tmp_path / "census-g0-n3-P6.json"
    target.write_text("[" * 200000 + "]" * 200000)
    assert run(capsys, *argv) == run(capsys, *argv[:-2])
    assert json.loads(target.read_text())["format"] == "ribbonvol-census"


def test_count_census_cache_dir_that_is_a_file(capsys, tmp_path):
    path = tmp_path / "a-file"
    path.write_text("")
    with pytest.raises(SystemExit) as err:
        main(["count", "--gn", "1,1", "--max-sum", "4", "--cache-dir", str(path)])
    assert err.value.code == 2
    assert "is not a directory" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["nul-byte", "under-a-file", "empty"])
def test_count_census_unusable_cache_dir_fails_first(capsys, monkeypatch, tmp_path, where):
    a_file = tmp_path / "a-file"
    a_file.write_text("")
    cache_dir = {"nul-byte": "bad\0path", "under-a-file": str(a_file / "sub"), "empty": ""}[where]

    def no_counting(*args):
        raise AssertionError("a count was computed for an unusable cache directory")

    monkeypatch.setattr(lattice, "_N", no_counting)
    monkeypatch.setattr(lattice, "_class_table", no_counting)
    with pytest.raises(SystemExit) as err:
        main(["count", "--gn", "0,4", "--max-sum", "12", "--cache-dir", cache_dir])
    assert err.value.code == 2
    assert "error: census cache: " in capsys.readouterr().err


def test_count_census_cache_env_var(capsys, monkeypatch, tmp_path):
    argv = ["count", "--gn", "0,3", "--max-sum", "5"]
    expected = run(capsys, *argv)
    monkeypatch.setenv("RIBBONVOL_CACHE_DIR", str(tmp_path / "env"))
    assert run(capsys, *argv) == expected
    assert [f.name for f in (tmp_path / "env").iterdir()] == ["census-g0-n3-P5.json"]
    # --cache-dir wins over the variable
    assert run(capsys, *argv, "--cache-dir", str(tmp_path / "flag")) == expected
    assert [f.name for f in (tmp_path / "flag").iterdir()] == ["census-g0-n3-P5.json"]
    # an empty variable counts as unset, and a single count reads none
    monkeypatch.setenv("RIBBONVOL_CACHE_DIR", "")
    assert run(capsys, *argv) == expected
    monkeypatch.setenv("RIBBONVOL_CACHE_DIR", str(tmp_path / "unused"))
    assert run(capsys, "count", "--gn", "0,3", "--p", "2,2,2") == (0, "1/1\n")
    assert not (tmp_path / "unused").exists()


def test_count_census_cache_write_failure_is_a_usage_error(capsys, monkeypatch, tmp_path):
    def failed_move(src, dst):
        raise OSError("the move into place failed")

    monkeypatch.setattr(os, "replace", failed_move)
    with pytest.raises(SystemExit) as err:
        main(["count", "--gn", "0,3", "--max-sum", "6", "--cache-dir", str(tmp_path)])
    assert err.value.code == 2
    assert "error: census cache: the move into place failed" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_count_census_text_deterministic(capsys):
    _, first = run(capsys, "count", "--gn", "0,4", "--max-sum", "7")
    _, second = run(capsys, "count", "--gn", "0,4", "--max-sum", "7")
    assert first == second
    assert "1 1 1 3\t2/1" in first
    assert run(capsys, "count", "--gn", "0,3", "--max-sum", "6") == (
        0,
        "1 1 1\t0/1\n1 1 2\t1/1\n1 1 3\t0/1\n1 1 4\t1/1\n"
        "1 2 2\t0/1\n1 2 3\t1/1\n2 2 2\t1/1\n",
    )


def test_count_usage_errors(capsys):
    with pytest.raises(SystemExit) as err:
        main(["count", "--gn", "1,1"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["count", "--gn", "1,1", "--p", "4", "--max-sum", "6"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["count", "--gn", "0,2", "--p", "1,1"])
    assert err.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("option", [["--format", "csv"], ["--cache-dir", "unused"]])
def test_count_single_rejects_census_options(capsys, option):
    with pytest.raises(SystemExit) as err:
        main(["count", "--gn", "1,1", "--p", "6", *option])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert "--format csv and --cache-dir need --max-sum" in captured.err
    assert captured.out == ""


def test_census_rejects_a_bound_without_vectors(capsys):
    for bound in ("-3", "0", "2"):
        with pytest.raises(SystemExit) as err:
            main(["count", "--gn", "0,3", "--max-sum", bound])
        assert err.value.code == 2
        assert "max_sum must be at least" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--gn=-1,5", "--p=1,2,2,2,2"],
        ["count", "--gn=-1,5", "--max-sum=5"],
        ["count", "--gn=2,-1", "--p=1"],
        ["poly", "L", "-1", "5"],
        ["poly", "VS", "2", "-1"],
        ["intersect", "-1", "5"],
    ],
)
def test_negative_genus_or_boundary_count_is_rejected(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert "not a stable surface type" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["poly", "L", "2", "0"],
        ["poly", "VE", "2", "0"],
        ["intersect", "3", "0"],
        ["count", "--gn", "2,0", "--max-sum", "3"],
    ],
)
def test_a_closed_surface_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert "not a stable surface type" in captured.err
    assert captured.err.startswith("usage: ")
    assert captured.out == ""


def test_poly_text(capsys):
    code, out = run(capsys, "poly", "VS", "1", "1")
    assert code == 0
    assert out == "(-1/32) t1^2\n"


def test_poly_json_round_trip(capsys):
    code, out = run(capsys, "poly", "L", "1", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["kind"], doc["g"], doc["n"]) == ("L", 1, 2)
    poly = EvenLaurentPoly(
        doc["arity"], {tuple(t["exponents"]): t["coefficient"] for t in doc["terms"]}
    )
    from ribbonvol.transform import LAPLACE, compute

    assert poly == compute(LAPLACE, 1, 2)


def test_poly_and_census_json_are_the_indented_json_of_their_documents(capsys):
    from ribbonvol.lattice import census
    from ribbonvol.transform import CONFIGS, compute

    # every kind at every type up to complexity 4, the base tables (0,3) and (1,1) too
    for kind, name in cli._POLY_KINDS.items():
        for g, n in stable_types(4):
            code, out = run(capsys, "poly", kind, str(g), str(n), "--format", "json")
            terms = [{"coefficient": f"{c.numerator}/{c.denominator}", "exponents": list(e)}
                     for e, c in compute(CONFIGS[name], g, n).sorted_terms()]
            doc = {"arity": n, "g": g, "kind": kind, "n": n, "terms": terms}
            assert (code, out) == (0, json.dumps(doc, indent=2, sort_keys=True) + "\n"), (kind, g, n)
    # one table past its grids for each n, as the row template fills it
    for g, n in [(2, 1), (1, 2), (1, 3), (0, 4), (0, 5), (0, 6)]:
        bound = lattice._grid_bound(g, n) + 6
        code, out = run(capsys, "count", "--gn", f"{g},{n}", "--max-sum", str(bound), "--format", "json")
        doc = census(g, n, bound).to_json_dict()
        assert (code, out) == (0, json.dumps(doc, indent=2, sort_keys=True) + "\n"), (g, n)


# sha256 of ``count --gn g,n --max-sum S --format text|csv|json``, as printed
# when every row was formatted on its own (text and CSV) and when JSON was
# filled in one pass; the benchmark's census tables.  (0,4,38)'s 4,185 rows
# span two of the writer's slices
CENSUS_DIGESTS = {
    (0, 4, 38, "text"): "0db7a90b72873d1bab443b0d61277c14cb2218f462dede3f7110e74add431216",
    (0, 4, 38, "csv"): "719b6506a004eb5131dcf7d8b13fc301d7193dc90dd47daae21c219e29e93ad8",
    (0, 4, 38, "json"): "87eaffaccdeede3778d9271058af216ed61b302dd318ccf24b099dd193d1c363",
    (1, 2, 54, "text"): "de23315036e9c3e866f863544c442a190b0e747b5e1915c0bcf9b24d72211ad5",
    (1, 2, 54, "csv"): "cf6e5a77bee5efc8487fcdca8e72ee149648cb23732341dd01060ad821a457c0",
    (1, 2, 54, "json"): "87e787677eeacc2f78b593210b664eb4ce454bf0e5818e45127dff587feffba0",
    (0, 5, 24, "text"): "ebc3154ba8fca4c97869e49442e89cfb15d2d25b867548efb0430fdcd0657be0",
    (0, 5, 24, "csv"): "ff71622b8f0096eab1c5b7bea89c03fe33a42b098eaadb0b1f6691cfbc3c26b4",
    (0, 5, 24, "json"): "e89df7b373534798e56efcdc73775550d49a97930fc42be04f6171c98915ae26",
    (1, 4, 20, "text"): "2ac1e968eaa8c42607e914700762e1a08cfba80e80e9263823815c435ea8976b",
    (1, 4, 20, "csv"): "da1a8fcce23d643b83daf5f5fe81900523ffc243cead3b7d9d8c6294118dab2d",
    (1, 4, 20, "json"): "df66f9422020d85e7e41b481be4c7dcd57973f0b619937333454883646850c53",
}


def test_census_text_and_csv_print_their_pinned_bytes(capsys):
    for (g, n, bound, fmt), digest in CENSUS_DIGESTS.items():
        code, out = run(capsys, "count", "--gn", f"{g},{n}", "--max-sum", str(bound), "--format", fmt)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest), (g, n, bound, fmt)


def test_poly_latex(capsys):
    code, out = run(capsys, "poly", "VE", "1", "1", "--format", "latex")
    assert code == 0
    assert out == "- \\frac{1}{128}t_{1}^{2}\n"


def _written(capsys, poly, fmt):
    cli._write_poly(poly.reduced_rows(), fmt, {"arity": poly.arity})
    return capsys.readouterr().out


def test_poly_latex_writer(capsys):
    p = EvenLaurentPoly(2, {(2, 0): F(5, 128), (1, 1): F(3, 128), (0, 2): F(5, 128)})
    assert _written(capsys, p, "latex") == (
        r"\frac{5}{128}t_{2}^{4} + \frac{3}{128}t_{1}^{2}t_{2}^{2} + \frac{5}{128}t_{1}^{4}" "\n"
    )
    # a unit coefficient prints as its sign alone, except on the constant
    units = EvenLaurentPoly(2, {(1, 0): 1, (0, 1): -1})
    assert _written(capsys, units, "latex") == "- t_{2}^{2} + t_{1}^{2}\n"
    constant = EvenLaurentPoly(2, {(0, 0): 1, (0, -1): -1})
    assert _written(capsys, constant, "latex") == "1 - t_{2}^{-2}\n"


def test_the_zero_polynomial_in_every_format(capsys):
    zero = EvenLaurentPoly.zero(1)
    assert _written(capsys, zero, "text") == _written(capsys, zero, "latex") == "0\n"
    assert _written(capsys, zero, "json") == json.dumps({"arity": 1, "terms": []}, indent=2) + "\n"


# sha256 of ``poly KIND g n --format text|json|latex``, as printed when the
# JSON was filled in one pass and the LaTeX grouped in a dict; L(0,7)'s
# 8,542 rows span three of the writer's slices, so these pins also catch a
# LaTeX sort, a dropped sign or a separator that goes wrong at a slice edge
POLY_DIGESTS = {
    ("L", 1, 5, "text"): "4b9b50e24ce05151fab0ed30c4b9ab48b858b63a0d6337019105ced9ca04554b",
    ("L", 1, 5, "json"): "804838d425fbf950800660a6d07bbdbd434cb1aa095a2d9de9c29fcad377f07a",
    ("L", 1, 5, "latex"): "20eeef879bcff0462d97b8cece737ba5fa55020a869a9476fa8242326383143c",
    ("L", 0, 6, "text"): "6b4e4bc47b9369061ac00670b63799419c85e9f41e5e03ced4cfa7222e6b3e4c",
    ("L", 0, 6, "json"): "9d34306fb915873bab786cf81513a79e6b2fb5ec6ce53e9769463df98a04f475",
    ("L", 0, 6, "latex"): "9a6f12163db0a196e933c21e707895031ba2aba6b76bf273e2468bc80faf7214",
    ("VE", 3, 3, "text"): "46128f60594dd0f00daf54d8e89fd079ee7a18a027b36e35aea84b368121fdeb",
    ("VE", 3, 3, "json"): "a9b55b644ca1b154c392186205c20a1f5a23a4c79ba611bf6045878703b2e208",
    ("VE", 3, 3, "latex"): "b02458916e3b68f5a4540401527152b70d4d498d181e25226af32015e10462d4",
    ("L", 0, 7, "text"): "09b9177edd7f0abd040c71762c091af0d86f5f5371b9189769cc047aa3a70516",
    ("L", 0, 7, "json"): "efdd87f115dd0f1d2057d39e7e7675db072c8695f854c4dc511508b7c6473069",
    ("L", 0, 7, "latex"): "5b25e9d1702aac16045766c74b66a0de5ac82b011c43f67546cae3d5324c74a0",
}


def test_poly_prints_its_pinned_bytes(capsys):
    for (kind, g, n, fmt), digest in POLY_DIGESTS.items():
        code, out = run(capsys, "poly", kind, str(g), str(n), "--format", fmt)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest), (kind, g, n, fmt)


def test_poly_rejects_unstable(capsys):
    with pytest.raises(SystemExit) as err:
        main(["poly", "L", "0", "2"])
    assert err.value.code == 2
    capsys.readouterr()


def test_verify_golden(capsys):
    code, out = run(capsys, "verify", "--suite", "golden")
    assert code == 0
    assert out.count("ok  ") == 6
    assert "FAIL" not in out


def test_verify_jsonl(capsys):
    code, out = run(capsys, "verify", "--suite", "symplectic", "--format", "jsonl")
    assert code == 0
    docs = [json.loads(line) for line in out.strip().splitlines()]
    assert len(docs) == 2
    assert all(doc["ok"] for doc in docs)


def test_verify_fast_suites(capsys):
    code, out = run(capsys, "verify", "--suite", "ratio", "--level", "3")
    assert code == 0
    code, out = run(capsys, "verify", "--suite", "leading", "--level", "3")
    assert code == 0
    code, out = run(capsys, "verify", "--suite", "series", "--level", "8")
    assert code == 0
    code, out = run(capsys, "verify", "--suite", "eo", "--trials", "1")
    assert code == 0


def test_the_series_suite_checks_the_class_route(capsys, monkeypatch):
    # the suite compares L_{g,n} with the counts ``count`` serves, so with the
    # class route broken every type that takes it at the default level fails;
    # (0, 4) takes it only from sum 20 on, and still passes
    monkeypatch.setattr(lattice, "_class_values", _broken)
    clear_caches()
    code, out = run(capsys, "verify", "--suite", "series", "--format", "jsonl")
    assert code == 1
    docs = [json.loads(line) for line in out.splitlines()]
    assert [(doc["case"], doc["ok"]) for doc in docs] == [
        ("series(0,3)", False), ("series(1,1)", False), ("series(0,4)", True), ("series(1,2)", False)]
    assert all(doc["detail"] == "injected arithmetic failure" for doc in docs if not doc["ok"])


@pytest.mark.parametrize(
    "argv",
    [
        ["--suite", "eo", "--trials", "0"],
        ["--suite", "symplectic", "--trials", "0"],
        ["--suite", "eo", "--trials", "-2"],
        ["--suite", "ratio", "--level", "0"],
        ["--suite", "leading", "--level", "0"],
        ["--suite", "series", "--level", "-1"],
    ],
)
def test_verify_rejects_suites_that_check_nothing(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(["verify", *argv])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert "must be positive" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("suite", ["series", "all"])
@pytest.mark.parametrize("level", ["2", "3"])
def test_verify_series_rejects_a_level_below_n(capsys, suite, level):
    # (0, 4) and (1, 2) have no perimeter vector with a sum below 4
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", suite, "--level", level])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert "--level must be at least 4" in captured.err
    assert captured.out == ""


def test_verify_series_at_the_least_level(capsys):
    code, out = run(capsys, "verify", "--suite", "series", "--level", "4", "--format", "jsonl")
    assert code == 0
    details = {doc["case"]: doc["detail"] for doc in map(json.loads, out.splitlines())}
    assert details["series(0,4)"] == "1 lattice points"


def _broken(*args, **kwargs):
    raise ArithmeticError("injected arithmetic failure")


@pytest.mark.parametrize(
    "suite, module, name, rows",
    [
        ("golden", transform, "compute", 6),
        ("ratio", transform, "kontsevich_ratio", 14),
        ("leading", transform, "euclidean_matches_leading", 14),
        ("series", crosscheck, "series_identity", 4),
        ("eo", eo, "residue_sum", 15),
        ("symplectic", crosscheck, "perimeter_volume", 2),
    ],
)
def test_verify_reports_an_arithmetic_error_as_a_failed_case(
    capsys, monkeypatch, suite, module, name, rows
):
    monkeypatch.setattr(module, name, _broken)
    code, out = run(capsys, "verify", "--suite", suite, "--trials", "1")
    assert code == 1
    lines = out.splitlines()
    assert lines[-1] == f"{rows} check(s) failed"
    assert len(lines) == rows + 1
    for line in lines[:-1]:
        assert line.startswith(f"FAIL {suite}")
        assert line.endswith("injected arithmetic failure")


@pytest.mark.parametrize("argv", [["poly", "L", "200", "1"], ["intersect", "300", "1"]])
def test_a_recursion_too_deep_is_an_error_not_a_traceback(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [["poly", "L", "1", "2"], ["intersect", "2", "1"]])
def test_an_engine_arithmetic_error_is_an_error_not_a_traceback(capsys, monkeypatch, argv):
    # the engine's orbit guard raises on an internal arithmetic bug
    monkeypatch.setattr(transform, "_check_orbits", _broken)
    clear_caches()
    try:
        assert main(argv) == 1
    finally:
        clear_caches()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: injected arithmetic failure\n"


def _out_of_memory(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize(
    "argv, module, name",
    [
        (["poly", "VE", "1", "1"], transform, "compute"),
        (["count", "--gn", "1,2", "--max-sum", "6"], lattice, "census"),
    ],
)
def test_running_out_of_memory_is_an_error_not_a_traceback(
    capsys, monkeypatch, argv, module, name
):
    monkeypatch.setattr(module, name, _out_of_memory)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory for this computation\n"


def test_a_reader_that_stops_early_ends_the_run_quietly():
    # L(1,5) prints about 100 kB, more than a pipe holds, so the CLI is
    # still writing when the reader closes its end
    proc = subprocess.Popen(
        [sys.executable, "-m", "ribbonvol.cli", "poly", "L", "1", "5"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    try:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        assert proc.wait(timeout=120) == 1
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.stderr.close()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--gn", "1,1", "--p", "6"],
        ["count", "--gn", "0,4", "--max-sum", "20"],
        ["poly", "L", "1", "5", "--format", "json"],  # more than a write buffer holds
    ],
    ids=["count", "census", "poly-json"],
)
def test_a_full_output_device_is_an_error_not_a_traceback(argv):
    with open("/dev/full", "wb") as full:
        proc = _child("-m", "ribbonvol.cli", *argv, stdout=full, stderr=subprocess.PIPE)
    err = proc.stderr.decode()
    assert proc.returncode == 1
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    assert "Traceback" not in err and "Exception ignored" not in err


# ---------------------------------------------------------------------------
# the process entry: ``run`` is ``main`` plus a frozen collector at exit


def _child(*argv, **kwargs):
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, *argv], env=env, timeout=120, **kwargs)


@pytest.mark.parametrize("to_file", [True, False], ids=["file", "pipe"])
@pytest.mark.parametrize(
    "argv",
    [
        ["poly", "L", "1", "5", "--format", "json"],  # more than a pipe holds
        ["count", "--gn", "0,4", "--max-sum", "38", "--format", "csv"],
        ["verify", "--suite", "golden", "--format", "jsonl"],
        ["--version"],
        ["count", "--gn", "0,2", "--p", "3"],  # a usage error, status 2
    ],
    ids=["poly-json", "census-csv", "golden-jsonl", "version", "usage-error"],
)
def test_a_process_prints_what_main_prints(capsys, monkeypatch, tmp_path, argv, to_file):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal
    expected = _invoke(capsys, argv)
    if to_file:
        with open(tmp_path / "out", "wb") as out:
            proc = _child("-m", "ribbonvol.cli", *argv, stdout=out, stderr=subprocess.PIPE)
        stdout = (tmp_path / "out").read_bytes()
    else:
        proc = _child("-m", "ribbonvol.cli", *argv, capture_output=True)
        stdout = proc.stdout
    assert (proc.returncode, stdout.decode(), proc.stderr.decode()) == expected


@pytest.mark.parametrize(
    "argv, code",
    [
        (["count", "--gn", "1,1", "--p", "6"], 0),
        (["count", "--gn", "0,2", "--p", "3"], 2),
        (["--version"], 0),
    ],
    ids=["return", "usage-error", "version"],
)
def test_the_process_entry_freezes_once_on_its_way_out(capsys, monkeypatch, argv, code):
    freezes = []
    monkeypatch.setattr(gc, "freeze", lambda: freezes.append(1))
    monkeypatch.setattr(sys, "argv", ["ribbonvol", *argv])
    with pytest.raises(SystemExit) as err:
        cli.run()
    assert err.value.code == code
    assert freezes == [1]
    capsys.readouterr()


def test_the_process_entry_freezes_once_when_main_raises(monkeypatch):
    def _raise_runtime_error(argv=None):
        raise RuntimeError("from main")

    freezes = []
    monkeypatch.setattr(gc, "freeze", lambda: freezes.append(1))
    monkeypatch.setattr(cli, "main", _raise_runtime_error)
    with pytest.raises(RuntimeError, match="^from main$"):
        cli.run()
    assert freezes == [1]


def test_main_never_freezes(capsys):
    frozen = gc.get_freeze_count()
    assert main(["count", "--gn", "1,1", "--p", "6"]) == 0
    with pytest.raises(SystemExit):
        main(["--version"])
    assert gc.get_freeze_count() == frozen
    capsys.readouterr()


def test_a_profiler_still_reports_after_the_process_entry():
    # the interpreter's own exit runs; a hard exit would skip the profiler's report
    proc = _child("-m", "cProfile", "-m", "ribbonvol.cli", "count", "--gn", "1,1", "--p", "6",
                  capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("2/3\n")
    assert "function calls" in proc.stdout


@pytest.mark.parametrize(
    "argv, text",
    [
        (["count", "--gn", "1,x", "--p", "2"], "invalid literal for int() with base 10: 'x'"),
        (["poly", "L", "0", "2"], "(0, 2) is not a stable surface type"),
        (["verify", "--trials", "0"], "--trials must be positive"),
        (["intersect", "-1", "2"], "(-1, 2) is not a stable surface type"),
    ],
    ids=["count", "poly", "verify", "intersect"],
)
def test_a_subcommand_usage_error_prints_that_subcommands_usage(capsys, argv, text):
    code, out, err = _invoke(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: ribbonvol {argv[0]} [-h]")
    assert err.endswith(f"\nribbonvol {argv[0]}: error: {text}\n")


def test_verify_output_is_deterministic(capsys):
    _, first = run(capsys, "verify", "--suite", "eo", "--trials", "2", "--seed", "9")
    _, second = run(capsys, "verify", "--suite", "eo", "--trials", "2", "--seed", "9")
    assert first == second


def test_intersect(capsys):
    code, out = run(capsys, "intersect", "2", "1")
    assert code == 0
    assert "<tau_4> literal=1/144 classical=1/1152 ratio=8" in out
    assert "common literal/classical ratio: 8" in out


def test_version(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("ribbonvol ")


# ---------------------------------------------------------------------------
# seeded fuzz of the whole command line: every subcommand and flag, with
# malformed numbers and lists, n = 0, huge g and bad cache directories.  A
# number that asks for real work (a large perimeter, --max-sum or --level, or
# a surface type of complexity past 4) is a request, not bad input, and stays
# out of the draw.

HUGE = "1000000000000000000"  # past any address space: a table of that size fails at once
FUZZ_TYPES = [
    ("0", "3"), ("1", "1"), ("0", "4"), ("1", "2"), ("2", "1"), ("0", "5"), ("1", "3"),
    ("0", "0"), ("2", "0"), ("0", "2"), ("1", "0"), ("-1", "3"), ("1", "-1"),
    (HUGE, "1"), (HUGE, "2"), ("0", HUGE), (HUGE, HUGE),
    ("x", "1"), ("1", ""), ("1.5", "2"), (" 1", "1"), ("+0", "3"), ("0x1", "1"),
]
FUZZ_PERIMETERS = ["2", "6", "1,1", "2,2", "3,1", "1,2,3", "2,2,2,2", "1,1,1,1,2",
                   "0", "-2", "2,,2", "a", "", "1.5", ",", "2,2,0"]
FUZZ_SMALL = ["0", "1", "2", "3", "4", "6", "-1", "x", "", "1.5", "1e3", " 2"]


def _fuzz_argv(rng, cache_dirs):
    def maybe(argv, flag, values, p=0.7):
        if rng.random() < p:
            argv += [flag, rng.choice(values)]

    g, n = rng.choice(FUZZ_TYPES)
    command = rng.choice(["count", "count", "poly", "verify", "verify", "intersect", "top"])
    if command == "count":
        argv = ["count"]
        maybe(argv, "--gn", [f"{g},{n}", f"{g},{n}", "1", "1,2,3", ","], p=0.9)
        maybe(argv, "--p", FUZZ_PERIMETERS)
        maybe(argv, "--max-sum", FUZZ_SMALL, p=0.5)
        maybe(argv, "--format", ["text", "json", "csv", "xml"], p=0.5)
        maybe(argv, "--cache-dir", cache_dirs, p=0.4)
    elif command == "poly":
        argv = ["poly", rng.choice(["L", "VE", "VS", "V"]), g, n]
        maybe(argv, "--format", ["text", "json", "latex", "csv"], p=0.5)
    elif command == "intersect":
        argv = ["intersect", g, n]
    elif command == "verify":
        argv = ["verify"]
        suites = ["golden", "ratio", "leading", "series", "eo", "symplectic", "all", "none"]
        maybe(argv, "--suite", suites, p=0.8)
        maybe(argv, "--seed", ["0", "1", "-3", HUGE, "x"], p=0.5)
        maybe(argv, "--level", ["1", "2", "3", "4", "0", "-1", "x"], p=0.6)
        maybe(argv, "--trials", ["1", "1", "2", "0", "-1", "x"], p=0.9)
        maybe(argv, "--format", ["text", "jsonl", "xml"], p=0.5)
    else:
        argv = rng.choice([[], ["--version"], ["--help"], ["frobnicate"], ["count", "--help"]])
    if rng.random() < 0.1:  # a stray word or flag anywhere
        argv.insert(rng.randint(0, len(argv)), rng.choice(["--bogus", "extra", "-", "--"]))
    return argv


def _invoke(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse: usage errors, --help and --version
        code = exc.code
    except Exception as exc:  # any other escape would end in a traceback
        pytest.fail(f"{argv} raised {exc!r}")
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_seeded_command_line_fuzz(capsys, tmp_path, seed):
    a_file = tmp_path / "plain-file"
    a_file.write_text("not a directory\n")
    cache_dirs = [str(tmp_path / "cache"), str(a_file), str(a_file / "sub"), "",
                  str(tmp_path / "nested" / "cache"), "bad\0path"]
    rng = random.Random(f"cli-fuzz:{seed}")
    for _ in range(100):
        argv = _fuzz_argv(rng, cache_dirs)
        code, out, err = _invoke(capsys, argv)
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in out + err, argv
        if code == 0:
            assert out, argv
        if code == 2:
            assert "usage:" in err, (argv, err)
        assert _invoke(capsys, argv) == (code, out, err), argv
