"""One-off reference cases: the ROADMAP baseline rows too long for a workload.

    python3 perfbench/reference.py

Each case runs ``REPEAT`` times, each time in a fresh process, and the
wall times are printed with their minimum; the last line is a JSON object
``{case: {"seconds": [...], "min_s": ...}}``.  Outputs are checked: counts
against the series bridge, polynomial term counts against the values
recorded at the time the benchmark was written, and the series identity
against the number of lattice points it must visit.
"""

from __future__ import annotations

import json
import shutil
import sys
from math import comb

from checker import Checker, TableMismatch
from run import SRC, WORK, run_child

sys.path.insert(0, str(SRC))

REPEAT = 3

SERIES_PROGRAM = (
    "from ribbonvol.crosscheck import series_identity; print(series_identity(0, 5, 16))"
)

#: name -> (ribbonvol CLI arguments, or a -c program; what stdout must satisfy)
CASES = {
    "L(2,4)": (["poly", "L", "2", "4", "--format", "json"], ("terms", 2748)),
    "L(0,7)": (["poly", "L", "0", "7", "--format", "json"], ("terms", 8542)),
    "L(1,6)": (["poly", "L", "1", "6", "--format", "json"], ("terms", 19956)),
    "VS(0,8)": (["poly", "VS", "0", "8", "--format", "json"], ("terms", 792)),
    "N_{2,3}(20,20,20)": (["count", "--gn", "2,3", "--p", "20,20,20"], ("count", (2, 3, (20, 20, 20)))),
    "N_{3,2}(24,24)": (["count", "--gn", "3,2", "--p", "24,24"], ("count", (3, 2, (24, 24)))),
    # every positive 5-vector with sum <= 16
    "series_identity(0,5,16)": (["-c", SERIES_PROGRAM], ("points", comb(16, 5))),
}


def check(expect, text: str) -> str | None:
    kind, want = expect
    if kind == "terms":
        got = len(json.loads(text)["terms"])
    elif kind == "points":
        got = int(text)
    else:
        try:
            value = Checker().bridge_count(*want)
        except TableMismatch as exc:
            return str(exc)
        want = f"{value.numerator}/{value.denominator}"
        got = text.strip()
    return None if got == want else f"got {got}, expected {want}"


def main() -> int:
    work = WORK / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    report = {}
    failed = 0
    try:
        for name, (cli, expect) in CASES.items():
            cmd = [sys.executable] + (cli if cli[0] == "-c" else ["-m", "ribbonvol.cli", *cli])
            times = []
            for _ in range(REPEAT):
                seconds, code, _ = run_child(cmd, work / "out", timeout=600)
                problem = f"exit code {code}" if code else check(expect, (work / "out").read_text())
                if problem:
                    print(f"FAILED {name}: {problem}")
                    failed += 1
                    break
                times.append(seconds)
            if times:
                report[name] = {"seconds": times, "min_s": min(times)}
                print(f"{name:<26} min {min(times):8.3f} s  ({', '.join(f'{t:.3f}' for t in times)})")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
