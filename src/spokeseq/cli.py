"""Command-line driver.

Subcommands: pi-hfp, ext, may, segal, mk, check.  Each accepts exactly the
flags it reads (``COMMANDS``); any other flag, a value of the wrong type or
an unknown choice is a configuration error, and so is a flag given to a
path of its command that does not read it (``PATH_IGNORES``).  Every report
starts with a config header (one ``# key = value`` line per accepted
setting except ``--out``) so runs are reproducible from their own output;
reports are byte-identical for identical configs.

Exit codes: 0 success; 1 a verdict or check failed; 2 configuration error;
3 window error; 4 internal consistency error (failed d-square, homogeneity
or bookkeeping invariant).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import NamedTuple

from . import charts, cobar, hfp, hopf, mayss
from .errors import ConfigError, EngineError, WindowError
from .fp import check_odd_prime, check_unit
from .grading import DegreeWindow

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_WINDOW = 3
EXIT_INTERNAL = 4

STANDARD_WINDOW = "-6:6:-8:8"


class RunConfig(NamedTuple):
    """One run's settings; those its subcommand does not accept keep their
    defaults."""

    command: str
    p: int = 3
    n: int = 1
    n_max: int = 3
    window: str = STANDARD_WINDOW
    s_max: int = 6
    beta: int = 1
    beta_prime: int = 1
    variant: str = "full"
    route: str = "resolution"
    stabilize: bool = False
    disable_d1: bool = False
    k_max: int = 12
    preset: str = "sthh"
    out: str | None = None
    svg: bool = False

    def validate(self) -> None:
        check_odd_prime(self.p)
        check_unit(self.p, self.beta, "beta")
        check_unit(self.p, self.beta_prime, "beta-prime")
        if self.k_max < 0:
            raise ConfigError(f"k_max must be >= 0, got {self.k_max}")
        DegreeWindow.parse(self.window, self.s_max)

    def degree_window(self) -> DegreeWindow:
        return DegreeWindow.parse(self.window, self.s_max)

    def header(self) -> str:
        """One line per accepted setting but --out; the window in its
        canonical form, so that equal windows print equal reports."""
        keys = ["command"] + [k for k in COMMANDS[self.command][2] if k != "out"]
        values = {k: getattr(self, k) for k in keys}
        if "window" in values:
            values["window"] = self.degree_window().format()
        return "".join(f"# {k} = {values[k]}\n" for k in sorted(keys))


def parse_report(text: str) -> tuple[dict[str, str], list[list[str]]]:
    """Round-trip a structured-text report back into a config dict and rows.

    Fields are separated by ' | ' (with spaces); a bare '|' inside a field
    belongs to a tri-degree like 1+2@|1|1 and is kept intact.
    """
    header: dict[str, str] = {}
    rows: list[list[str]] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                header[key.strip()] = value.strip()
        else:
            rows.append([part.strip() for part in line.split(" | ")])
    return header, rows


def _write_out(out_dir: str, name: str, text: str) -> None:
    """Write one output file; an output directory that cannot be made or
    written to is a configuration error."""
    path = os.path.join(out_dir, name)
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit(config: RunConfig, name: str, text: str) -> None:
    """Write the report to --out, if given, then to stdout: a report that
    cannot be written is not printed."""
    if config.out:
        _write_out(config.out, name, text)
    sys.stdout.write(text)


def _emit_svg(config: RunConfig, name: str, doc: charts.ChartDoc) -> None:
    if config.svg:
        _write_out(config.out or ".", name, charts.render_svg(doc))


def cmd_pi_hfp(config: RunConfig) -> int:
    variant = hfp.HfpVariant(config.variant)
    window = config.degree_window()
    lines = [config.header()]
    table = {}
    for d in window.degrees():
        labels = hfp.basis_in_degree(config.p, variant, d)
        table[d] = labels
        if labels:
            lines.append(f"{d.format()} | {len(labels)} | {' '.join(sorted(labels))}\n")
    _emit(config, "pi-hfp.txt", "".join(lines))
    doc = charts.chart_from_dimension_table(
        f"pi-hfp {variant.value}", window, {d: sorted(l) for d, l in table.items()}
    )
    _emit_svg(config, "pi-hfp.svg", doc)
    return EXIT_OK


def cmd_ext(config: RunConfig) -> int:
    window = config.degree_window()
    if config.stabilize:
        table, n_used, flag = cobar.stabilize_over_n(
            config.p, window, config.n_max, config.beta, config.beta_prime
        )
        header = config.header() + f"# stabilized = {flag} at n = {n_used}\n"
        _emit(config, "ext.txt", header + table.format())
        return EXIT_OK if flag else EXIT_FAIL
    H, M = hopf.truncated_hopf(config.p, config.n, config.beta, config.beta_prime)
    if config.route == "cobar":
        table = cobar.ext_dimensions(cobar.build_cobar(H, M, window))
    else:
        table = cobar.resolution_ext_table(H, M, window)
    _emit(config, "ext.txt", config.header() + table.format())
    return EXIT_OK


def cmd_may(config: RunConfig) -> int:
    window = config.degree_window()
    pages = mayss.compute_pages(config.p, config.n, window, config.beta, config.beta_prime)
    text = [config.header()]
    for r in sorted(pages):
        page = pages[r]
        text.append(f"# page {r} reliable m [{page.reliable_m[0]},{page.reliable_m[1]}]\n")
        text.append(page.format())
    _emit(config, "may.txt", "".join(text))
    for r in (1, config.p - 1):
        doc = charts.chart_from_page(pages[r], window.s_max)
        charts.add_differential_arrows(doc, pages[r + 1])
        _emit_svg(config, f"may-page{r}.svg", doc)
    doc = charts.chart_from_page(pages[config.p], window.s_max)
    _emit_svg(config, f"may-page{config.p}.svg", doc)
    return EXIT_OK


def cmd_segal(config: RunConfig) -> int:
    window = config.degree_window()
    report = mayss.segal_pipeline(
        config.p,
        config.n_max,
        window,
        config.beta,
        config.beta_prime,
        disable_d1=config.disable_d1,
    )
    _emit(config, "segal.txt", config.header() + report.format())
    return EXIT_OK if report.verdict else EXIT_FAIL


def cmd_mk(config: RunConfig) -> int:
    lines = [config.header(), "k | formula | oracle | match\n"]
    all_ok = True
    for k in range(config.k_max + 1):
        formula = hopf.m_k_formula(config.p, k)
        oracle = hopf.m_k_oracle(config.p, k)
        ok = formula == oracle
        all_ok &= ok
        lines.append(f"{k} | {formula} | {oracle} | {'yes' if ok else 'NO'}\n")
    _emit(config, "mk.txt", "".join(lines))
    return EXIT_OK if all_ok else EXIT_FAIL


def cmd_check(config: RunConfig) -> int:
    preset = config.preset
    window = config.degree_window()
    if preset == "sthh":
        H = hopf.descent_algebroid(config.p, config.beta, config.beta_prime)
        comodule = hopf.base_comodule(H)
    elif preset == "geometric":
        H = hopf.geometric_algebroid(config.p)
        comodule = hopf.base_comodule(H)
    elif preset == "truncated":
        H, comodule = hopf.truncated_hopf(
            config.p, config.n, config.beta, config.beta_prime
        )
    else:
        raise ConfigError(f"unknown preset {preset!r}")
    report = hopf.check_axioms(H, window, comodule)
    _emit(config, "check.txt", config.header() + report.format())
    return EXIT_OK if report.ok else EXIT_FAIL


# subcommand: (handler, help, the settings it reads, each one a flag)
COMMANDS = {
    "pi-hfp": (
        cmd_pi_hfp,
        "per-degree dimension tables of the point ring",
        ("p", "window", "variant", "out", "svg"),
    ),
    "ext": (
        cmd_ext,
        "Ext table of the truncated Hopf algebra",
        ("p", "n", "n_max", "window", "s_max", "beta", "beta_prime", "route", "stabilize", "out"),
    ),
    "may": (
        cmd_may,
        "spectral-sequence pages and charts",
        ("p", "n", "window", "s_max", "beta", "beta_prime", "out", "svg"),
    ),
    "segal": (
        cmd_segal,
        "full pipeline and completeness verdict",
        ("p", "n_max", "window", "s_max", "beta", "beta_prime", "disable_d1", "out"),
    ),
    "mk": (cmd_mk, "free-summand table: formula vs rank oracle", ("p", "k_max", "out")),
    "check": (
        cmd_check,
        "axiom suite for a structure preset",
        ("p", "n", "window", "beta", "beta_prime", "preset", "out"),
    ),
}

# flags a command accepts but one of its paths does not read:
# (command, setting, value, the path's name) -> flags refused when given
PATH_IGNORES = {
    ("ext", "stabilize", True, "ext --stabilize"): ("n", "route"),
    ("ext", "stabilize", False, "ext without --stabilize"): ("n_max",),
    ("check", "preset", "geometric", "check --preset geometric"): ("n", "beta", "beta_prime"),
    ("check", "preset", "sthh", "check --preset sthh"): ("n",),
}


def _refuse_ignored_flags(config: RunConfig, given) -> None:
    """Refuse a flag given explicitly to a path of its command that ignores
    it; flags left at their defaults are not refused."""
    for (command, key, value, path), ignored in PATH_IGNORES.items():
        if config.command == command and getattr(config, key) == value:
            for flag in ignored:
                if flag in given:
                    raise ConfigError(f"{path} does not read --{flag.replace('_', '-')}")


# argparse keywords per setting; defaults are RunConfig's
FLAGS = {
    "p": {"type": int, "help": "odd prime"},
    "n": {"type": int, "help": "truncation height"},
    "n_max": {"type": int, "help": "largest truncation height"},
    "window": {"help": "degree window m0:m1:n0:n1"},
    "s_max": {"type": int, "help": "cohomological degree cap"},
    "beta": {"type": int, "help": "unit in the right unit of ul"},
    "beta_prime": {"type": int, "help": "unit in the right unit of us"},
    "variant": {"choices": [v.value for v in hfp.HfpVariant]},
    "route": {"choices": ["resolution", "cobar"]},
    "stabilize": {"action": "store_true", "help": "stabilize over n"},
    "disable_d1": {
        "action": "store_true",
        "help": "negative control: skip the first differential",
    },
    "k_max": {"type": int},
    "preset": {"choices": ["sthh", "geometric", "truncated"]},
    "out": {"help": "output directory"},
    "svg": {"action": "store_true", "help": "also write SVG charts"},
}


class _Parser(argparse.ArgumentParser):
    """Reads a window value that starts with a dash (--window -12:2:-14:14)
    and reports bad arguments as a ConfigError instead of exiting."""

    def parse_known_args(self, args=None, namespace=None):
        glued: list[str] = []
        for arg in sys.argv[1:] if args is None else args:
            if glued and glued[-1] == "--window":
                glued[-1] += "=" + arg
            else:
                glued.append(arg)
        return super().parse_known_args(glued, namespace)

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: each parse_args call fills a fresh
    namespace, so no parse leaves state behind for the next."""
    parser = _Parser(
        prog="spokeseq",
        description="Exact spectral-sequence calculator for spoke-graded rings over F_p",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, settings) in COMMANDS.items():
        # a flag not given is absent from the parsed namespace; no abbreviations,
        # so that segal's --n-max does not take --n
        sp = sub.add_parser(
            command, help=help_text, argument_default=argparse.SUPPRESS, allow_abbrev=False
        )
        for key in settings:
            sp.add_argument("--" + key.replace("_", "-"), dest=key, **FLAGS[key])
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        given = vars(build_parser().parse_args(argv))
        config = RunConfig(**given)
        _refuse_ignored_flags(config, given)
        config.validate()
        return COMMANDS[config.command][0](config)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG
    except WindowError as exc:
        print(exc, file=sys.stderr)
        return EXIT_WINDOW
    except EngineError as exc:
        print(exc, file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
