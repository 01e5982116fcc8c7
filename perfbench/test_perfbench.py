"""Self-tests of the benchmark: smoke runs of every workload through the real
harness on tiny windows, plus the checks that set ``failed``.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1", "--smoke", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def units(metrics: dict) -> dict[str, str]:
    return {name: entry["unit"] for name, entry in metrics.items()}


def test_workloads_match_benchmark_json():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", NAMES)
def test_every_end_to_end_metric_is_emitted_with_its_unit(workload):
    result = result_of(bench("--workload", workload, "--trace", "0"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_self_times_fit_in_its_wall_time(workload):
    result = result_of(bench("--workload", workload, "--trace", "1"))
    metrics = result["metrics"]
    assert result["correct"]
    assert units(metrics) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    self_time = sum(e["value"] for name, e in metrics.items() if name.endswith(".self_s"))
    assert 0 < self_time <= metrics["trace.wall_s"]["value"]
    shares = [e["value"] for name, e in metrics.items() if name.endswith("share")]
    assert all(0 <= share <= 1 for share in shares)


def checkout_copy(tmp_path: Path) -> Path:
    """A copy of BENCHMARK.json and perfbench/ in ``tmp_path``."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".*", "__pycache__"))
    return tmp_path


def test_corrupted_reference_digest_fails_the_query(tmp_path):
    root = checkout_copy(tmp_path)
    (root / "src").symlink_to(ROOT / "src", target_is_directory=True)
    path = root / "perfbench" / "reference.json"
    references = json.loads(path.read_text())
    references[checks.key(workloads.SMOKE_SEGAL)]["body_sha256"] = "0" * 64
    path.write_text(json.dumps(references))
    result = result_of(bench("--workload", "segal-p3", cwd=root))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["passed_share"]["value"] == 0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    proc = bench("--workload", "desk-mix", cwd=checkout_copy(tmp_path))
    assert proc.returncode != 0
    assert "{" not in proc.stdout


SEGAL_REPORT = """# window = -4:1:-3:3
n=2 | survivor neg 0-1@|0|0 | 1
n=2 | survivor neg 0-2@|0|0 | 1
n=2 | survivor neg 0-3@|0|0 | 1
n=2 | survivor pos 0+0@|0|0 | 1
stabilized at n=2
verdict: true
"""


def test_segal_closed_form_check():
    argv = "segal --p 3 --window -4:1:-3:3".split()
    assert checks.INDEPENDENT["segal"](argv, SEGAL_REPORT) == []
    missing = SEGAL_REPORT.replace("n=2 | survivor neg 0-2@|0|0 | 1\n", "")
    assert checks.INDEPENDENT["segal"](argv, missing)
    extra = SEGAL_REPORT.replace("stabilized", "n=2 | survivor pos 2+0@|0|0 | 1\nstabilized")
    assert checks.INDEPENDENT["segal"](argv, extra)


def test_mk_and_check_reports():
    mk = "k | formula | oracle | match\n0 | 0 | 0 | yes\n1 | 2 | 3 | NO\n"
    assert checks.INDEPENDENT["mk"]("mk --k-max 1".split(), mk)
    assert checks.INDEPENDENT["mk"]("mk --k-max 1".split(), mk.replace("2 | 3 | NO", "3 | 3 | yes")) == []
    assert checks.INDEPENDENT["check"]([], "coassociativity | checked 5 | pass\n") == []
    assert checks.INDEPENDENT["check"]([], "coassociativity | checked 5 | FAIL (x)\n")


def test_crosscheck_compares_dimension_columns():
    queries = workloads.crosscheck_pair("--p 3 --window -1:1:-1:1")
    cobar = {"code": 0, "stdout": "# route = cobar\n0 | 0+0@ | 1 | 1\n1 | 0+1@ | 1 | 1[mu]\n"}
    same = {"code": 0, "stdout": "# route = resolution\n0 | 0+0@ | 1 | 1\n1 | 0+1@ | 1 | z\n"}
    other = {"code": 0, "stdout": "0 | 0+0@ | 1 | 1\n1 | 0+1@ | 2 | z\n"}
    assert checks.crosscheck(queries, [cobar, same]) == {}
    assert checks.crosscheck(queries, [cobar, other]) == {0: ["cobar and resolution Ext columns disagree"]}
