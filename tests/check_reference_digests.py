"""Check every query the benchmark can send against its pinned reference.

    python3 tests/check_reference_digests.py

Answers ``perfbench.workloads.every_query()`` in one fresh interpreter,
through the benchmark's own ``launch``, and compares each query's exit
status and report-body SHA-256 with ``perfbench/reference.json``.  Prints
every mismatch and exits 1 if there is one.  ``python -m pytest perfbench``
runs only the smoke queries, so this is the check of the full-size ones.
The name does not start with ``test_``, so pytest does not collect it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
from checks import digest, key  # noqa: E402
from workloads import every_query  # noqa: E402


def main() -> int:
    references = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    queries = every_query()
    run.WORK.mkdir(exist_ok=True)
    job = {"src": str(ROOT / "src"), "setup": [], "queries": queries, "trace": False}
    report = run.launch(job, timeout=600)
    if "error" in report:
        print(f"run failed: {report['error']}", file=sys.stderr)
        return 1
    mismatches = []
    for argv, result in zip(queries, report["results"]):
        want = references.get(key(argv))
        got = {"code": result["code"], "body_sha256": digest(result["stdout"])}
        if got != want:
            mismatches.append(f"{key(argv)}: got {got}, reference {want}")
    for line in mismatches:
        print(line)
    print(f"{len(mismatches)} mismatches of {len(queries)} queries")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
