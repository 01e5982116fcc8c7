"""The spokeseq benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run of the workload is a fresh
single-threaded interpreter (``child.py``) that imports ``src/spokeseq``,
builds the run's structures and calls ``spokeseq.cli.main`` once per query;
runs are launched one at a time from this process until ``--seconds`` would
be exceeded.  Every query's exit status and report body are checked against
``reference.json`` and by independent checks (``checks.py``).  Times in the
result are on each run's scaled clock (``speedometer.py``), which does not
follow the host's changes of speed; the printed row gives wall times too.

With ``--trace 0`` the last output line is a JSON object holding every
end-to-end metric named in ``BENCHMARK.json``; with ``--trace 1`` runs go in
pairs, one untraced and one with the span recorder (``tracer.py``)
installed, and the object holds every per-layer metric.  ``--workload all``
runs every workload and prints one row each.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from speedometer import ScaledClock  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path.cwd()
WORK = HERE / ".work"
SETUP_PROBES = 5
# seconds after the start by which every run must have ended, which leaves
# room under the three-minute limit to kill a run that hangs
DEADLINE = 170.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def tail_note(values: list[float]) -> str:
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for q in (50, 90, 99, 99.9):
        if len(values) * (1 - q / 100) >= 10:
            best = q
    if best is None:
        return f"n={len(values)}, no percentile has 10 samples beyond it"
    return f"n={len(values)}, p{best:g}={percentile(values, best):.6g}"


def launch(job: dict, timeout: float) -> dict:
    """Run one child interpreter; returns its report plus its wall and
    set-up seconds, counted from just before launch, and the same on the
    run's scaled clock (``speedometer.py``), as ``scaled_*`` and, per query,
    ``scaled``."""
    env = {k: v for k, v in os.environ.items() if k not in ("SPOKESEQ_OUT", "PYTHONPATH")}
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-s", str(HERE / "child.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=WORK,
        env=env,
        text=True,
    )
    try:
        out, err = proc.communicate(json.dumps(job), timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"wall": time.monotonic() - start, "error": f"run exceeded {timeout:.0f} s"}
    wall = time.monotonic() - start
    if proc.returncode != 0 or not out.strip():
        return {"wall": wall, "error": err.strip()[-2000:] or f"exit status {proc.returncode}"}
    report = json.loads(out.splitlines()[-1])
    clock = ScaledClock(report.pop("marks"))
    report["wall"] = wall
    report["setup"] = report["setup_done"] - start
    report["scaled_wall"] = clock.seconds(start, start + wall)
    report["scaled_setup"] = clock.seconds(start, report["setup_done"])
    for result in report["results"]:
        result["scaled"] = clock.seconds(result["start"], result["start"] + result["seconds"])
    return report


def judge(queries: list[list[str]], report: dict, references: dict) -> list[list[str]]:
    """Failure messages per query of one run."""
    if "error" in report:
        return [[f"run failed: {report['error']}"] for _ in queries]
    results = report["results"]
    failures = [checks.check_query(q, r, references) for q, r in zip(queries, results)]
    for i, extra in checks.crosscheck(queries, results).items():
        failures[i] += extra
    return failures


class Session:
    """Runs of one workload in one invocation, and their checks."""

    def __init__(self, name: str, seed: int, seconds: float, smoke: bool, references: dict):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.references = references
        self.begin = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def queries(self, index: int) -> list[list[str]]:
        rng = random.Random(self.seed * 1000 + index)
        return (self.workload.smoke if self.smoke else self.workload.queries)(rng)

    def run(self, queries, trace=False, run_id=0) -> dict:
        job = {
            "src": str(ROOT / "src"),
            "setup": self.workload.setup,
            "queries": queries,
            "trace": trace,
            "run_id": run_id,
            "spans_path": str(WORK / f"spans-{self.workload.name}-{run_id}.tsv"),
        }
        report = launch(job, max(1.0, DEADLINE - (time.monotonic() - self.begin)))
        if queries:
            failures = judge(queries, report, self.references)
            self.attempted += len(queries)
            self.failed += sum(1 for f in failures if f)
            for q, f in zip(queries, failures):
                self.messages += [f"{checks.key(q)}: {m}" for m in f]
        return report

    def more(self, last_seconds: float) -> bool:
        """Whether another run of the given length fits in the time budget."""
        return time.monotonic() - self.begin + last_seconds <= self.seconds

    def result(self, metrics: dict) -> dict:
        return {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def untraced(session: Session, names: dict) -> tuple[dict, str]:
    probes = [session.run([]) for _ in range(SETUP_PROBES)]
    runs = []
    while True:
        runs.append(session.run(session.queries(len(runs))))
        if not session.more(max(r["wall"] for r in runs)):
            break
    ok = [r for r in runs if "error" not in r]
    set_up = [r for r in probes + ok if "error" not in r]
    # when every run failed, the failed runs' wall times stand in
    walls = [r["wall"] for r in ok] or [r["wall"] for r in runs]
    scaled_walls = [r["scaled_wall"] for r in ok] or walls
    setups = [r["scaled_setup"] for r in set_up] or walls
    latencies = [q["seconds"] for r in ok for q in r["results"]] or walls
    scaled_latencies = [q["scaled"] for r in ok for q in r["results"]] or walls

    def run_percentile(key: str, q: float) -> float:
        """Median over runs of each run's percentile: with one or two queries
        per run, a percentile of the pooled latencies would be an extreme
        of a few values."""
        if not ok:
            return percentile(walls, q)
        return statistics.median(percentile([x[key] for x in r["results"]], q) for r in ok)

    values = {
        "scaled_wall_s": statistics.median(scaled_walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in ok) / 1024 if ok else 0.0,
        "passed_share": 1 - session.failed / max(1, session.attempted),
        "scaled_query_s.p50": run_percentile("scaled", 50),
        "scaled_query_s.p90": run_percentile("scaled", 90),
    }
    row = (
        f"{session.workload.name}:"
        f" wall_s={statistics.median(walls):.4f} s ({tail_note(walls)})"
        f"  scaled_wall_s={values['scaled_wall_s']:.4f} s ({tail_note(scaled_walls)})"
        f"  setup_s={values['setup_s']:.4f} s scaled"
        f" (n={len(setups)})"
        f"  peak_rss_mb={values['peak_rss_mb']:.1f} MB"
        f"  failed_share={session.failed / max(1, session.attempted):g}"
        f" ({session.failed} of {session.attempted} queries)"
        f"  query_s.p50={run_percentile('seconds', 50):.4f} s"
        f"  query_s.p90={run_percentile('seconds', 90):.4f} s"
        f" ({tail_note(latencies)})"
        f"  scaled_query_s.p50={values['scaled_query_s.p50']:.4f} s"
        f"  scaled_query_s.p90={values['scaled_query_s.p90']:.4f} s"
        f" ({tail_note(scaled_latencies)})"
    )
    return {name: {"value": values[name], "unit": unit} for name, unit in names.items()}, row


def _page_labels(queries, results) -> int:
    """Distinct labels printed in the page rows of each ``may`` report; a
    page that a differential leaves unchanged prints its labels again."""
    count = 0
    for argv, result in zip(queries, results):
        if argv[0] == "may":
            rows = checks.rows(result["stdout"])
            count += len({label for r in rows if len(r) == 4 for label in r[3].split()})
    return count


def layer_values(report: dict, queries: list[list[str]]) -> dict[str, float]:
    """Every per-layer value one traced run gives.  A ``.share`` value is a
    span's inclusive time over the run's own query time, so both hold the
    recorder's cost and the share stays within [0, 1]."""
    summary = report["trace"]
    busy = sum(q["seconds"] for q in report["results"])
    spans, counters = summary["spans"], summary["counters"]
    values: dict[str, float] = dict(counters)
    for name, stat in spans.items():
        values[f"{name}.calls"] = stat["calls"]
        values[f"{name}.self_s"] = stat["self_s"]
        values[f"{name}.total_s"] = stat["total_s"]

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    distinct = counters.get("algebra.monomials_in_degree.distinct", 0)
    enum_calls = calls("algebra.monomials_in_degree")
    values["algebra.monomials_in_degree.repeat_share"] = (
        1 - distinct / enum_calls if enum_calls else 0.0
    )
    values["algebra.monomials_in_degree.share"] = total("algebra.monomials_in_degree") / busy
    values["mayss.turn_page.share"] = (
        total("mayss.turn_page.d1") + total("mayss.turn_page.dpm1")
    ) / busy
    values["hopf.setup_s"] = total("hopf.setup")
    formatted = sum(
        n
        for parent, n in summary["parents"].get("algebra.format_monomial", {}).items()
        if parent.startswith("mayss.")
    )
    # no label formatted means none formatted in vain
    values["mayss.label_use_share"] = (
        _page_labels(queries, report["results"]) / formatted if formatted else 1.0
    )
    return values


def _scaled_wall(runs: list[dict]) -> float:
    """Median scaled wall time; a failed run stands in with its wall time."""
    return statistics.median(r.get("scaled_wall", r["wall"]) for r in runs)


def traced(session: Session, names: dict) -> tuple[dict, str]:
    plain, marked, layer = [], [], []
    while True:
        index = len(marked)
        queries = session.queries(index)
        start = time.monotonic()
        plain.append(session.run(queries))
        marked.append(session.run(queries, trace=True, run_id=index))
        if "error" not in marked[-1]:
            layer.append(layer_values(marked[-1], queries))
        if not session.more(time.monotonic() - start):
            break
    traced_wall = statistics.median(r["wall"] for r in marked)
    # the difference of two runs, so on the scaled clock: a change of host
    # speed between the runs of a pair does not show as overhead
    overhead = _scaled_wall(marked) - _scaled_wall(plain)
    values = {}
    for name in names:
        if name == "trace.overhead_s":
            values[name] = overhead
        elif name == "trace.wall_s":
            values[name] = traced_wall
        else:
            # a span never entered in this workload reads 0
            values[name] = statistics.median(v.get(name, 0) for v in layer) if layer else 0.0
    row = (
        f"{session.workload.name} traced: {len(marked)} pair(s), traced wall {traced_wall:.4f} s,"
        f" overhead {overhead:.4f} s scaled"
    )
    return {name: {"value": values[name], "unit": unit} for name, unit in names.items()}, row


def measure(name: str, args, references: dict, spec: dict) -> dict:
    session = Session(name, args.seed, args.seconds, args.smoke, references)
    key = "per_layer" if args.trace else "end_to_end"
    names = {m["name"]: m["unit"] for m in spec[key]}
    metrics, row = (traced if args.trace else untraced)(session, names)
    print(row)
    if args.trace:
        for metric, entry in metrics.items():
            print(f"  {metric:48s} {entry['value']:.6g} {entry['unit']}")
    for message in session.messages[:20]:
        print(f"  FAILED {message}", file=sys.stderr)
    return session.result(metrics)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny windows, for the benchmark's self-tests"
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "spokeseq" / "cli.py").is_file():
        print(f"no spokeseq sources under {ROOT / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        references = json.loads((HERE / "reference.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"cannot read the benchmark's configuration: {exc}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)

    if args.workload != "all":
        print(json.dumps(measure(args.workload, args, references, spec)))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        result = measure(name, args, references, spec)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
