"""Record the SHA-256 of the stdout of every engine, verify and intersect
job the generator can emit, and of the terms of L_{g,n} for every surface
type whose counts are checked against it, into ``digests.json``.

    python3 perfbench/record_digests.py

Run it only at a commit whose output is known good: the benchmark then
fails any later commit whose output for one of these jobs is not
byte-identical.  Verify outputs must pass the row checks before they are
recorded.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys

from checker import DIGESTS, laplace_digest, verify_rows
from jobs import bridge_types, digest_jobs, digest_key, laplace_key
from run import SRC, WORK, cli_argv, run_child

sys.path.insert(0, str(SRC))


def main() -> int:
    work = WORK / "digests"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    digests = {}
    try:
        for job in digest_jobs():
            out = work / "job.out"
            seconds, code, _ = run_child(cli_argv(job, work), out)
            data = out.read_bytes()
            problem = f"exit code {code}" if code else None
            if job.kind == "verify" and not problem:
                problem = verify_rows(job, data.decode())
            if problem:
                print(f"{digest_key(job)}: {problem}", file=sys.stderr)
                return 1
            digests[digest_key(job)] = hashlib.sha256(data).hexdigest()
            print(f"{seconds:7.3f}s  {digest_key(job)}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    from ribbonvol.transform import LAPLACE, compute

    for g, n in bridge_types():
        digests[laplace_key(g, n)] = laplace_digest(compute(LAPLACE, g, n).terms)
        print(f"{'':8s}{laplace_key(g, n)}", flush=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(digests)} digests written to {DIGESTS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
