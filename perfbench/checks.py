"""Correctness of each query: its exit status and report body against the
reference recorded from the seed commit, plus checks that do not rely on the
reference at all.

The body is the report without its ``#`` header lines, so a header-only change
(a setting added to or removed from the header) does not count as a
difference.
"""

from __future__ import annotations

import hashlib
import re

ERROR_CODE = re.compile(r"\[E_[A-Z_]+\]")


def key(argv: list[str]) -> str:
    return " ".join(argv)


def body(report: str) -> str:
    return "".join(line for line in report.splitlines(keepends=True) if not line.startswith("#"))


def digest(report: str) -> str:
    return hashlib.sha256(body(report).encode()).hexdigest()


def rows(report: str) -> list[list[str]]:
    return [line.split(" | ") for line in body(report).splitlines() if line.strip()]


def _option(argv: list[str], name: str, default: str) -> str:
    return argv[argv.index(name) + 1] if name in argv else default


def _segal_closed_form(argv, report) -> list[str]:
    """Acceptance criterion 1: at the stabilized height the survivors are one
    class per a-power at m = 0, s = 0, and nothing else."""
    n_min = int(_option(argv, "--window", "-6:6:-8:8").split(":")[2])
    text = body(report)
    found = re.search(r"^stabilized at n=(\d+)$", text, re.M)
    if not found or "verdict: true\n" not in text:
        return ["segal: no stabilized true verdict"]
    label = f"n={found.group(1)}"
    table = {
        row[1].split(" ", 1)[1]: int(row[2])
        for row in rows(report)
        if row[0] == label and row[1].startswith("survivor ")
    }
    want = {f"neg 0{nn:+d}@|0|0": 1 for nn in range(n_min, 0)}
    want["pos 0+0@|0|0"] = 1
    return [] if table == want else [f"segal: survivor table at {label} is not the closed form"]


def _mk_rows(argv, report) -> list[str]:
    table = rows(report)[1:]
    k_max = int(_option(argv, "--k-max", "12"))
    if len(table) != k_max + 1:
        return [f"mk: {len(table)} rows for k <= {k_max}"]
    bad = [r[0] for r in table if len(r) != 4 or r[1] != r[2] or r[3] != "yes"]
    return [f"mk: formula differs from oracle at k = {', '.join(bad)}"] if bad else []


def _check_ok(argv, report) -> list[str]:
    table = rows(report)
    bad = [r[0] for r in table if len(r) != 3 or r[2] != "pass"]
    if not table or bad:
        return [f"check: not ok ({', '.join(bad) or 'empty report'})"]
    return []


INDEPENDENT = {"segal": _segal_closed_form, "mk": _mk_rows, "check": _check_ok}


def check_query(argv: list[str], result: dict, references: dict) -> list[str]:
    """Failure messages for one query; empty when it is correct."""
    ref = references.get(key(argv))
    if ref is None:
        return [f"no reference for {key(argv)!r}"]
    failures = []
    if result["code"] != ref["code"]:
        failures.append(f"exit status {result['code']}, expected {ref['code']}")
    if digest(result["stdout"]) != ref["body_sha256"]:
        failures.append("report body differs from the reference")
    if ref["code"] in (2, 3):
        if not ERROR_CODE.search(result["stderr"]):
            failures.append("error query printed no [E_*] message")
    elif ref["code"] == 0 and argv[0] in INDEPENDENT:
        failures += INDEPENDENT[argv[0]](argv, result["stdout"])
    return failures


def ext_columns(report: str) -> set[tuple[str, str, str]]:
    return {tuple(r[:3]) for r in rows(report)}


def crosscheck(queries: list[list[str]], results: list[dict]) -> dict[int, list[str]]:
    """Failures, by query index, of cobar Ext tables whose (s, degree, dim)
    columns differ from the resolution route on the same settings."""
    by_setting: dict[tuple[str, str], int] = {}
    for i, argv in enumerate(queries):
        if argv[0] == "ext" and "--route" in argv:
            route = _option(argv, "--route", "resolution")
            rest = [a for j, a in enumerate(argv) if a != "--route" and argv[j - 1] != "--route"]
            by_setting[(route, key(rest))] = i
    failures: dict[int, list[str]] = {}
    for (route, setting), i in by_setting.items():
        j = by_setting.get(("resolution", setting))
        if route != "cobar" or j is None:
            continue
        if results[i]["code"] != 0 or ext_columns(results[i]["stdout"]) != ext_columns(results[j]["stdout"]):
            failures[i] = ["cobar and resolution Ext columns disagree"]
    return failures
