"""Command-line driver.

Subcommands: pi-hfp, ext, may, segal, mk, check.  Every report starts with a
config header (one ``# key = value`` line per setting) so runs are
reproducible from their own output; reports are byte-identical for identical
configs regardless of thread count.

Exit codes: 0 success; 1 a verdict or check failed; 2 configuration error;
3 window error; 4 internal consistency error (failed d-square, homogeneity
or bookkeeping invariant).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field

from . import charts, cobar, hfp, hopf, mayss
from .errors import (
    CompositionError,
    ConfigError,
    EngineError,
    HomogeneityError,
    BookkeepingError,
    WindowError,
)
from .fp import check_odd_prime
from .grading import DegreeWindow

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_WINDOW = 3
EXIT_INTERNAL = 4

STANDARD_WINDOW = "-6:6:-8:8"


@dataclass
class RunConfig:
    command: str
    p: int = 3
    n: int = 1
    n_max: int = 3
    window: str = STANDARD_WINDOW
    s_max: int = 6
    beta: int = 1
    beta_prime: int = 1
    threads: int = 1
    out: str | None = None
    svg: bool = False
    extras: dict = field(default_factory=dict)

    def validate(self) -> None:
        check_odd_prime(self.p)
        if self.beta % self.p == 0 or self.beta_prime % self.p == 0:
            raise ConfigError("beta and beta-prime must be units")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        DegreeWindow.parse(self.window, self.s_max)

    def degree_window(self) -> DegreeWindow:
        return DegreeWindow.parse(self.window, self.s_max)

    def header(self) -> str:
        pairs = {
            "command": self.command,
            "p": self.p,
            "n": self.n,
            "n_max": self.n_max,
            "window": self.window,
            "s_max": self.s_max,
            "beta": self.beta,
            "beta_prime": self.beta_prime,
            "threads": self.threads,
            "svg": self.svg,
        }
        pairs.update(self.extras)
        return "".join(f"# {k} = {pairs[k]}\n" for k in sorted(pairs))


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


def _emit(config: RunConfig, name: str, text: str) -> None:
    sys.stdout.write(text)
    out_dir = config.out or os.environ.get("SPOKESEQ_OUT")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(text)


def _emit_svg(config: RunConfig, name: str, doc: charts.ChartDoc) -> None:
    if not config.svg:
        return
    text = charts.render_svg(doc)
    out_dir = config.out or os.environ.get("SPOKESEQ_OUT") or "."
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write(text)


def cmd_pi_hfp(config: RunConfig) -> int:
    variant = hfp.HfpVariant(config.extras.get("variant", "full"))
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
    route = config.extras.get("route", "resolution")
    stabilize = config.extras.get("stabilize", False)
    if stabilize:
        table, n_used, flag = cobar.stabilize_over_n(
            config.p, window, config.n_max, config.beta, config.beta_prime,
            threads=config.threads,
        )
        header = config.header() + f"# stabilized = {flag} at n = {n_used}\n"
        _emit(config, "ext.txt", header + table.format())
        return EXIT_OK if flag else EXIT_FAIL
    H, M = hopf.truncated_hopf(config.p, config.n, config.beta, config.beta_prime)
    if route == "cobar":
        cx = cobar.build_cobar(H, M, window)
        table = cobar.ext_dimensions(cx, threads=config.threads)
    else:
        table = cobar.resolution_ext_table(H, M, window, threads=config.threads)
    _emit(config, "ext.txt", config.header() + table.format())
    return EXIT_OK


def cmd_may(config: RunConfig) -> int:
    window = config.degree_window()
    pages = mayss.compute_pages(
        config.p, config.n, window, window.s_max, config.beta, config.beta_prime
    )
    text = [config.header()]
    for r in sorted(pages):
        page = pages[r]
        text.append(f"# page {r} reliable m [{page.reliable_m[0]},{page.reliable_m[1]}]\n")
        text.append(page.format())
    _emit(config, "may.txt", "".join(text))
    for r, diff in ((1, mayss.d1_monomial), (config.p - 1, mayss.d_pminus1_monomial)):
        page = pages[r]
        doc = charts.chart_from_page(page, window.s_max)
        charts.add_differential_arrows(doc, page, diff)
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
        window.s_max,
        config.beta,
        config.beta_prime,
        disable_d1=bool(config.extras.get("disable_d1")),
    )
    _emit(config, "segal.txt", config.header() + report.format())
    return EXIT_OK if report.verdict else EXIT_FAIL


def cmd_mk(config: RunConfig) -> int:
    k_max = int(config.extras.get("k_max", 12))
    lines = [config.header(), "k | formula | oracle | match\n"]
    all_ok = True
    for k in range(k_max + 1):
        formula = hopf.m_k_formula(config.p, k)
        oracle = hopf.m_k_oracle(config.p, k)
        ok = formula == oracle
        all_ok &= ok
        lines.append(f"{k} | {formula} | {oracle} | {'yes' if ok else 'NO'}\n")
    _emit(config, "mk.txt", "".join(lines))
    return EXIT_OK if all_ok else EXIT_FAIL


def cmd_check(config: RunConfig) -> int:
    preset = config.extras.get("preset", "sthh")
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
    report = hopf.check_axioms(H, window, comodule, threads=config.threads)
    _emit(config, "check.txt", config.header() + report.format())
    return EXIT_OK if report.ok else EXIT_FAIL


COMMANDS = {
    "pi-hfp": cmd_pi_hfp,
    "ext": cmd_ext,
    "may": cmd_may,
    "segal": cmd_segal,
    "mk": cmd_mk,
    "check": cmd_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spokeseq",
        description="Exact spectral-sequence calculator for spoke-graded rings over F_p",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--p", type=int, default=3, help="odd prime")
        sp.add_argument("--n", type=int, default=1, help="truncation height")
        sp.add_argument("--n-max", type=int, default=3, dest="n_max")
        sp.add_argument("--window", default=STANDARD_WINDOW, help="m0:m1:n0:n1")
        sp.add_argument("--s-max", type=int, default=6, dest="s_max")
        sp.add_argument("--beta", type=int, default=1)
        sp.add_argument("--beta-prime", type=int, default=1, dest="beta_prime")
        sp.add_argument("--threads", type=int, default=1)
        sp.add_argument("--out", default=None, help="output directory (or $SPOKESEQ_OUT)")
        sp.add_argument("--svg", action="store_true", help="also write SVG charts")

    sp = sub.add_parser("pi-hfp", help="per-degree dimension tables of the point ring")
    common(sp)
    sp.add_argument(
        "--variant",
        default="full",
        choices=[v.value for v in hfp.HfpVariant],
    )

    sp = sub.add_parser("ext", help="Ext table of the truncated Hopf algebra")
    common(sp)
    sp.add_argument("--route", default="resolution", choices=["resolution", "cobar"])
    sp.add_argument("--stabilize", action="store_true", help="stabilize over n")

    sp = sub.add_parser("may", help="spectral-sequence pages and charts")
    common(sp)

    sp = sub.add_parser("segal", help="full pipeline and completeness verdict")
    common(sp)
    sp.add_argument(
        "--disable-d1",
        action="store_true",
        dest="disable_d1",
        help="negative control: skip the first differential",
    )

    sp = sub.add_parser("mk", help="free-summand table: formula vs rank oracle")
    common(sp)
    sp.add_argument("--k-max", type=int, default=12, dest="k_max")

    sp = sub.add_parser("check", help="axiom suite for a structure preset")
    common(sp)
    sp.add_argument("--preset", default="sthh", choices=["sthh", "geometric", "truncated"])
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    # window values like -12:2:-14:14 start with a dash; glue them to the flag
    glued: list[str] = []
    skip = False
    for i, arg in enumerate(argv):
        if skip:
            skip = False
            continue
        if arg == "--window" and i + 1 < len(argv):
            glued.append(f"--window={argv[i + 1]}")
            skip = True
        else:
            glued.append(arg)
    args = parser.parse_args(glued)
    extras = {}
    for key in ("variant", "route", "stabilize", "disable_d1", "k_max", "preset"):
        if hasattr(args, key):
            extras[key] = getattr(args, key)
    config = RunConfig(
        command=args.command,
        p=args.p,
        n=args.n,
        n_max=args.n_max,
        window=args.window,
        s_max=args.s_max,
        beta=args.beta,
        beta_prime=args.beta_prime,
        threads=args.threads,
        out=args.out,
        svg=args.svg,
        extras=extras,
    )
    try:
        config.validate()
        return COMMANDS[args.command](config)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG
    except WindowError as exc:
        print(exc, file=sys.stderr)
        return EXIT_WINDOW
    except (CompositionError, HomogeneityError, BookkeepingError) as exc:
        print(exc, file=sys.stderr)
        return EXIT_INTERNAL
    except EngineError as exc:
        print(exc, file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
