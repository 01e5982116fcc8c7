"""The traced benchmark (perfbench/tracer.py) wraps spokeseq functions and
methods by name from outside the package; deleting or renaming one of them
breaks it.  Install its recorder in a fresh interpreter, so the wrapping
stays out of this process, and answer a small Ext query and a small segal
query under it."""

import json
import subprocess
import sys
from pathlib import Path

from spokeseq.grading import DegreeWindow
from spokeseq.mayss import may_e1, page_one

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import spokeseq.cli as cli
import tracer

rec = tracer.Recorder()
tracer.install(rec)
codes = [
    cli.main(["ext", "--p", "3", "--n", "1", "--window", "-1:0:-1:0", "--s-max", "1"]),
    cli.main(["segal", "--p", "3", "--n-max", "2", "--window", "-1:0:-2:2", "--s-max", "2"]),
]
print(json.dumps({"codes": codes, **rec.summary()}))
"""


def test_tracer_installs_on_the_package():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["codes"] == [0, 0]
    for name in (
        "cli.emit",
        "cobar.ext_dimensions",
        "concurrency.deterministic_map",
        # the page engine; turn_page's span is named from its new_r argument
        "mayss.page_one",
        "mayss.e1_monomials",
        "mayss.turn_page.d1",
        "mayss.turn_page.dpm1",
    ):
        assert summary["spans"][name]["calls"] > 0, name
    assert summary["counters"]["concurrency.deterministic_map.items"] > 0
    # mayss.e1_monomials.cells is len() of e1_monomials' result: one entry
    # per first-page cell, translates included, at both heights of the
    # segal query (its window widened by 2 in m and by 2 in s, as
    # segal_pipeline and compute_pages widen it)
    widened = DegreeWindow(-3, 2, -2, 2, s_max=4)
    cells = sum(len(page_one(may_e1(3, n), widened).cells) for n in (1, 2))
    assert summary["counters"]["mayss.e1_monomials.cells"] == cells
