"""Command-line interface.

Subcommands:

* ``count``      -- one weighted count, or a census table up to a perimeter bound
* ``poly``       -- a Laplace-transformed or volume polynomial (text/JSON/LaTeX)
* ``verify``     -- run the internal consistency suites
* ``intersect``  -- intersection numbers read off the symplectic volume

All output is deterministic for fixed arguments: table rows, JSON keys and
verification cases are emitted in sorted order, and randomized suites are
driven by the --seed value.  Exit status is 0 on success, 1 when a
verification, computation or write of the output fails (a reader that
goes away ends it quietly), 2 on bad usage; ``main`` reports a failure on
one line.

Each subcommand imports only the modules it uses, and ``json`` only for
JSON output, so start-up is paid for the work asked for and no more.
Polynomials and census text and JSON print through one ``_write_table``.

``run`` is the process entry (``python -m ribbonvol.cli`` and the
``ribbonvol`` script).  Once ``main`` returns it freezes the garbage
collector, so the full collections of interpreter shutdown skip every
object the run created; atexit handlers, the flush of stdout and stderr
and profilers still run as usual.  ``main`` is the in-process API and
never freezes: a caller that runs it many times keeps its own collector.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from ._version import __version__
from .surface import is_stable, stable_types

_POLY_KINDS = {"L": "laplace", "VE": "euclidean", "VS": "symplectic"}
_SUITES = ("golden", "ratio", "leading", "series", "eo", "symplectic")

_SERIES_TYPES = ((0, 3), (1, 1), (0, 4), (1, 2))
_EO_TYPES = ((0, 3), (1, 1), (0, 4), (1, 2), (2, 1))
_CONTINUOUS_TYPES = ((0, 4), (1, 2))


def _parse_gn(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("expected the form g,n")
    return int(parts[0]), int(parts[1])


def _require_stable(parser, g: int, n: int) -> None:
    if not is_stable(g, n):
        parser.error(f"({g}, {n}) is not a stable surface type")


def _fraction_text(value) -> str:
    return f"{value.numerator}/{value.denominator}"


def _text_piece(row) -> str:
    exps, num, den = row
    body = " ".join([f"t{j + 1}^{2 * e}" for j, e in enumerate(exps) if e]) or "1"
    return f"({num}) {body}" if den == 1 else f"({num}/{den}) {body}"


def _latex_piece(row) -> str:
    exps, num, den = row
    mono = "".join([f"t_{{{j + 1}}}^{{{2 * e}}}" for j, e in enumerate(exps) if e])
    coeff = str(abs(num)) if den == 1 else rf"\frac{{{abs(num)}}}{{{den}}}"
    # a unit coefficient prints as its sign alone, except on the constant
    return f" {'-' if num < 0 else '+'} {'' if mono and coeff == '1' else coeff}{mono}"


def _write_table(head: str, rows, render, between: str, tail: str) -> None:
    """Write ``head``, each of ``rows`` through ``render`` joined by
    ``between``, then ``tail`` and a newline to stdout, 4096 rows at a time."""
    sys.stdout.write(head)
    for start in range(0, len(rows), 4096):
        text = between.join(map(render, rows[start:start + 4096]))
        sys.stdout.write(between + text if start else text)
    sys.stdout.write(tail + "\n")


def _write_poly(rows, fmt: str, doc: dict) -> None:
    """Write a polynomial's ``reduced_rows`` to stdout as ``fmt``: JSON within
    ``doc`` (every key but ``terms``) as ``json.dumps`` indents it, LaTeX by
    total degree, highest first."""
    head, tail, render, between = "" if rows else "0", "", _text_piece, " + "
    if fmt == "json":
        import json
        # each term as json.dumps(indent=2) writes an item of "terms"
        exponents = ",\n        ".join(["%d"] * doc["arity"])
        row = '{\n      "coefficient": "%d/%d",\n      "exponents": [\n        ' + exponents + "\n      ]\n    }"
        render, between = lambda r: row % (r[1], r[2], *r[0]), ",\n    "
        doc = {**doc, "terms": ["%s"] if rows else []}
        head, _, tail = json.dumps(doc, indent=2, sort_keys=True).partition('"%s"')
    elif fmt == "latex" and rows:
        rows = sorted(rows, key=lambda r: -sum(r[0]))
        # every piece starts with its sign, and the first drops a leading +
        head, render, between = _latex_piece(rows.pop(0))[1:].removeprefix("+ "), _latex_piece, ""
    _write_table(head, rows, render, between, tail)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_count(args, parser) -> int:
    from .lattice import CountTable, census, count

    try:
        g, n = _parse_gn(args.gn)
    except ValueError as exc:
        parser.error(str(exc))
    _require_stable(parser, g, n)
    if (args.p is None) == (args.max_sum is None):
        parser.error("provide exactly one of --p and --max-sum")

    if args.p is not None:
        if args.format == "csv" or args.cache_dir is not None:
            parser.error("--format csv and --cache-dir need --max-sum")
        try:
            p = tuple(int(part) for part in args.p.split(","))
            value = count(g, n, p)
        except ValueError as exc:
            parser.error(str(exc))
        if args.format == "json":
            import json
            doc = {"g": g, "n": n, "p": list(p), "value": _fraction_text(value)}
            print(json.dumps(doc, sort_keys=True))
        else:
            print(_fraction_text(value))
        return 0

    cache_dir = args.cache_dir
    if cache_dir is None:  # the variable stands in for the option; empty is unset
        cache_dir = os.environ.get("RIBBONVOL_CACHE_DIR") or None
    try:
        table = census(g, n, args.max_sum, cache_dir=cache_dir)
    except ValueError as exc:
        parser.error(str(exc))
    except OSError as exc:
        parser.error(f"census cache: {exc}")
    if args.format == "csv":
        sys.stdout.write(table.csv_text())
        return 0
    head, tail, row, between = "", "", " ".join(["%d"] * n) + "\t%s", "\n"
    if args.format == "json":
        import json
        # each row as json.dumps(indent=2) writes an item of "entries"
        row = "[\n      [\n        " + ",\n        ".join(["%d"] * n) + '\n      ],\n      "%s"\n    ]'
        doc = CountTable(g, n, args.max_sum, []).to_json_dict() | {"entries": ["%s"]}
        head, _, tail = json.dumps(doc, indent=2, sort_keys=True).partition('"%s"')
        between = ",\n    "
    _write_table(head, table.text, lambda r: row % (*r[0], r[1]), between, tail)
    return 0


def _cmd_poly(args, parser) -> int:
    from .transform import CONFIGS, compute

    config = CONFIGS[_POLY_KINDS[args.kind]]
    _require_stable(parser, args.g, args.n)
    poly = compute(config, args.g, args.n)
    doc = {"arity": poly.arity, "g": args.g, "kind": args.kind, "n": args.n}
    _write_poly(poly.reduced_rows(), args.format, doc)
    return 0


def _verify_cases(suite: str, level: int | None, seed: int, trials: int):
    """Yield (suite, case, ok, detail) rows for one suite.  Each case is a
    check that returns (ok, detail); an ``ArithmeticError`` from one fails
    that case, with the error text as its detail."""
    bound = level if level is not None else 5
    if suite == "golden":
        from .crosscheck import golden_laplace
        from .transform import LAPLACE, compute

        def golden(g, n, expected):
            return compute(LAPLACE, g, n) == expected, "matches closed form"
        cases = [(f"L({g},{n})", golden, g, n, p) for (g, n), p in sorted(golden_laplace().items())]
    elif suite == "ratio":
        from .transform import kontsevich_ratio

        def ratio(g, n):
            return kontsevich_ratio(g, n) == 2 ** (5 * g - 5 + 2 * n), f"2^{5 * g - 5 + 2 * n}"
        cases = [(f"VS/VE({g},{n})", ratio, g, n) for g, n in stable_types(bound)]
    elif suite == "leading":
        from .transform import euclidean_matches_leading

        def leading(g, n):
            return euclidean_matches_leading(g, n), "top part of L"
        cases = [(f"VE({g},{n})", leading, g, n) for g, n in stable_types(bound)]
    elif suite == "series":
        from .crosscheck import series_identity
        bound = level if level is not None else 12

        def series(g, n):
            return True, f"{series_identity(g, n, bound)} lattice points"
        cases = [(f"series({g},{n})", series, g, n) for g, n in _SERIES_TYPES]
    elif suite == "eo":
        from .eo import CURVES, verify_eo

        def residues(curve, g, n):
            results = verify_eo(curve, g, n, trials=trials, seed=seed)
            return all(flag for _, flag in results), f"{len(results)} trials"
        cases = [(f"residues[{name}]({g},{n})", residues, CURVES[name], g, n)
                 for name in sorted(CURVES) for g, n in _EO_TYPES]
    else:  # "symplectic"
        from .crosscheck import verify_continuous_recursion

        def integral(g, n):
            results = verify_continuous_recursion(g, n, trials=trials, seed=seed)
            return all(flag for _, flag in results), f"{len(results)} chamber points"
        cases = [(f"integral({g},{n})", integral, g, n) for g, n in _CONTINUOUS_TYPES]
    for case, check, *args in cases:
        try:
            ok, detail = check(*args)
        except ArithmeticError as exc:
            ok, detail = False, str(exc)
        yield suite, case, ok, detail


def _cmd_verify(args, parser) -> int:
    # a suite that checks nothing must not report success
    if args.trials < 1:
        parser.error("--trials must be positive")
    if args.level is not None and args.level < 1:
        parser.error("--level must be positive")
    suites = _SUITES if args.suite == "all" else (args.suite,)
    # a perimeter-sum bound below n leaves that type no lattice point
    widest = max(n for _, n in _SERIES_TYPES)
    if "series" in suites and args.level is not None and args.level < widest:
        parser.error(f"--level must be at least {widest} for the series suite")
    failures = 0
    for suite in suites:
        for row in _verify_cases(suite, args.level, args.seed, args.trials):
            suite_name, case, ok, detail = row
            if not ok:
                failures += 1
            if args.format == "jsonl":
                import json
                doc = {"suite": suite_name, "case": case, "ok": ok, "detail": detail}
                print(json.dumps(doc, sort_keys=True))
            else:
                mark = "ok  " if ok else "FAIL"
                print(f"{mark} {suite_name:<10} {case:<24} {detail}")
    if failures and args.format != "jsonl":
        print(f"{failures} check(s) failed")
    return 1 if failures else 0


def _cmd_intersect(args, parser) -> int:
    from .crosscheck import intersection_ratio_report

    _require_stable(parser, args.g, args.n)
    rows = intersection_ratio_report(args.g, args.n)
    ratios = set()
    for key, literal, classical, ratio in rows:
        tau = " ".join(f"tau_{d}" for d in key)
        line = f"<{tau}> literal={literal}"
        if classical is not None:
            line += f" classical={classical} ratio={ratio}"
            ratios.add(ratio)
        print(line)
    if ratios and len(ratios) == 1:
        print(f"common literal/classical ratio: {ratios.pop()}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ribbonvol",
        description="Exact counts and volume polynomials for integral ribbon graphs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="weighted counts of integral ribbon graphs")
    p_count.add_argument("--gn", required=True, metavar="G,N", help="surface type, e.g. 1,2")
    p_count.add_argument("--p", metavar="P1,P2,..", help="one perimeter vector")
    p_count.add_argument(
        "--max-sum", type=int, metavar="S", help="census of all vectors with sum <= S"
    )
    p_count.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_count.add_argument("--cache-dir", metavar="DIR", help="directory for census caching")
    p_count.set_defaults(handler=_cmd_count, parser=p_count)

    p_poly = sub.add_parser("poly", help="print a polynomial")
    p_poly.add_argument("kind", choices=sorted(_POLY_KINDS), help="L, VE or VS")
    p_poly.add_argument("g", type=int)
    p_poly.add_argument("n", type=int)
    p_poly.add_argument("--format", choices=("text", "json", "latex"), default="text")
    p_poly.set_defaults(handler=_cmd_poly, parser=p_poly)

    p_verify = sub.add_parser("verify", help="run consistency suites")
    p_verify.add_argument("--suite", choices=(*_SUITES, "all"), default="all")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument(
        "--level",
        type=int,
        default=None,
        help="complexity bound for ratio/leading, perimeter-sum bound for series",
    )
    p_verify.add_argument("--trials", type=int, default=5)
    p_verify.add_argument("--format", choices=("text", "jsonl"), default="text")
    p_verify.set_defaults(handler=_cmd_verify, parser=p_verify)

    p_int = sub.add_parser("intersect", help="intersection numbers from V^S")
    p_int.add_argument("g", type=int)
    p_int.add_argument("n", type=int)
    p_int.set_defaults(handler=_cmd_intersect, parser=p_int)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a handler's usage errors name its subcommand, as argparse's own do
        code = args.handler(args, args.parser)
        sys.stdout.flush()
    except OSError as exc:
        # the output failed: send the rest, and the flush at exit, nowhere;
        # a reader that went away ends the run quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write the output: {exc}", file=sys.stderr)
        return 1
    except RecursionError as exc:
        # the recursions go one call deeper per step of g or n
        print(f"error: too deep a recursion for this interpreter ({exc})", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory for this computation", file=sys.stderr)
        return 1
    except ArithmeticError as exc:  # an exactness check failed
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


def run() -> None:
    """Run ``main`` as a whole process, leaving through ``SystemExit``."""
    try:
        raise SystemExit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
