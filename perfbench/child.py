"""One benchmark run, in a fresh interpreter.

Reads a job from stdin as JSON: ``src`` (the directory holding the spokeseq
package), ``setup`` ((p, n) pairs), ``queries`` (argv lists for
``spokeseq.cli.main``), ``trace`` and ``spans_path``.  It starts the
speedometer (``speedometer.py``), imports the package, builds the run's
structures, answers the queries one at a time, and prints one JSON line:
when set-up ended, each query's exit status, output, start and end, the
peak resident set size, the speedometer's probe marks and, in a traced run,
the span summary.  Times are ``time.monotonic()`` readings, which are
system-wide, so the parent can set them against its own launch time.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

from speedometer import Speedometer


def main() -> int:
    meter = Speedometer()
    meter.start()
    job = json.load(sys.stdin)
    src = os.path.realpath(job["src"])
    sys.path.insert(0, src)
    import spokeseq.cli as cli

    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"spokeseq imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    recorder = None
    if job["trace"]:
        sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))
        import tracer

        recorder = tracer.Recorder()
        tracer.install(recorder)
    from spokeseq import hopf, mayss

    for p, n in job["setup"]:
        hopf.truncated_hopf(p, n)
        hopf.descent_algebroid(p)
        mayss.may_e1(p, n)
    setup_done = time.monotonic()

    results = []
    for i, argv in enumerate(job["queries"]):
        if recorder is not None:
            recorder.query = i
        out, err = io.StringIO(), io.StringIO()
        start = time.monotonic()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                # counted as a failed query by the parent: no coded exit status
                code = None
                err.write(traceback.format_exc())
        end = time.monotonic()
        results.append(
            {
                "code": code,
                "stdout": out.getvalue(),
                "stderr": err.getvalue(),
                "start": start,
                "seconds": end - start,
            }
        )

    meter.stop()
    report = {
        "setup_done": setup_done,
        "marks": meter.marks,
        "results": results,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if recorder is not None:
        report["trace"] = recorder.summary()
        recorder.write_spans(job["spans_path"], job.get("run_id", 0))
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
