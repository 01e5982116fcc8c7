"""Record the reference exit status and report-body digest of every query
the workloads can send.

    python3 perfbench/record_reference.py

Run from the root of a checkout of the commit whose reports are the
reference; it rewrites ``perfbench/reference.json``.  Every query must also
pass the independent checks, or nothing is written.
"""

from __future__ import annotations

import json
import sys

import run
from checks import check_query, crosscheck, digest, key
from workloads import every_query


def main() -> int:
    queries = every_query()
    run.WORK.mkdir(exist_ok=True)
    job = {"src": str(run.ROOT / "src"), "setup": [], "queries": queries, "trace": False}
    report = run.launch(job, timeout=3600)
    if "error" in report:
        print(report["error"], file=sys.stderr)
        return 1
    results = report["results"]
    references = {
        key(q): {"code": r["code"], "body_sha256": digest(r["stdout"])}
        for q, r in zip(queries, results)
    }
    failures = [
        f"{key(q)}: {m}" for q, r in zip(queries, results) for m in check_query(q, r, references)
    ]
    failures += [f"{key(queries[i])}: {m}" for i, ms in crosscheck(queries, results).items() for m in ms]
    for q, r in zip(queries, results):
        if r["code"] not in (0, 2, 3):
            failures.append(f"{key(q)}: unexpected exit status {r['code']}")
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(references)} references to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
