"""Span recorder for the traced benchmark run.

It wraps public functions of the spokeseq modules from outside the package:
every module attribute that still refers to the original function (for
example ``cobar.monomials_in_degree`` as well as
``algebra.monomials_in_degree``) and every listed class method is replaced by
a wrapper that records one span per call.  A span is (name, start, end,
parent span, query id); spans are kept in memory, up to a cap, and written
out when the run ends.  Per-name aggregates (calls, self time, total time)
and counters derived from argument and result sizes are kept for every call.

Self time is a span's duration minus the part of it covered by its child
spans.  The recorder's own bookkeeping is counted as covered time of the
parent, so it lands in no span's self time.  Total time counts only the
outermost span of each name, so recursion is not counted twice.

The recorder is installed only in the traced run; untraced runs import the
package untouched.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

SPAN_CAP = 100_000


class Recorder:
    def __init__(self, span_cap: int = SPAN_CAP):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # per name id: [calls, self seconds, total seconds, open depth]
        self.stats: list[list] = []
        self.counters: dict[str, float] = {}
        # (name id, parent name id) -> calls
        self.by_parent: dict[tuple[int, int], int] = {}
        # open spans: [name id, covered seconds, span index or -1]
        self.stack: list[list] = []
        self.spans: list[tuple[int, float, float, int, int]] = []
        self.span_cap = span_cap
        self.dropped = 0
        self.query = -1

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.stats.append([0, 0.0, 0.0, 0])
        return nid

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, fn, name, on_call=None):
        """Return a wrapper that records a span per call of ``fn``.

        ``name`` is a span name or a function of the call arguments giving
        one; ``on_call(args, kwargs, result)`` updates counters.
        """
        fixed = None if callable(name) else self.intern(name)
        stack, stats, spans, by_parent = self.stack, self.stats, self.spans, self.by_parent

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else self.intern(name(args, kwargs))
            parent = stack[-1] if stack else None
            pid = parent[0] if parent else -1
            key = (nid, pid)
            by_parent[key] = by_parent.get(key, 0) + 1
            stat = stats[nid]
            stat[3] += 1
            frame = [nid, 0.0, -1]
            if len(spans) < self.span_cap:
                frame[2] = len(spans)
                spans.append(None)
            else:
                self.dropped += 1
            stack.append(frame)
            start = perf_counter()
            try:
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    stat[3] -= 1
                    duration = end - start
                    stat[0] += 1
                    stat[1] += duration - frame[1]
                    if not stat[3]:
                        stat[2] += duration
                    if frame[2] >= 0:
                        spans[frame[2]] = (
                            nid, start, end, parent[2] if parent else -1, self.query
                        )
                if on_call is not None:
                    on_call(args, kwargs, result)
                return result
            finally:
                if parent is not None:
                    parent[1] += perf_counter() - start

        return wrapper

    def counter_only(self, fn, on_call):
        """Wrap ``fn`` to update counters without opening a span, so its time
        stays with the caller."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_call(args, kwargs, result)
            return result

        return wrapper

    def summary(self) -> dict:
        spans = {
            name: {"calls": s[0], "self_s": s[1], "total_s": s[2]}
            for name, s in zip(self.names, self.stats)
        }
        parents: dict[str, dict[str, int]] = {}
        for (nid, pid), calls in self.by_parent.items():
            parent = self.names[pid] if pid >= 0 else ""
            parents.setdefault(self.names[nid], {})[parent] = calls
        return {
            "spans": spans,
            "parents": parents,
            "counters": dict(self.counters),
        }

    def write_spans(self, path: str, run_id: int) -> None:
        with open(path, "w") as fh:
            if self.dropped:
                fh.write(f"# {self.dropped} spans past the first {self.span_cap} were not kept\n")
            fh.write("run\tquery\tspan\tparent\tname\tstart\tend\n")
            for i, span in enumerate(self.spans):
                if span is None:
                    continue
                nid, start, end, parent, query = span
                fh.write(
                    f"{run_id}\t{query}\t{i}\t{parent}\t{self.names[nid]}\t{start:.9f}\t{end:.9f}\n"
                )


def _replace_everywhere(original, wrapper) -> None:
    """Point every spokeseq module attribute that holds ``original`` at the
    wrapper, so callers that imported the name see it too."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "spokeseq" or mod_name.startswith("spokeseq.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def _turn_page_name(args, kwargs) -> str:
    new_r = args[2] if len(args) > 2 else kwargs["new_r"]
    # turn_page produces page 2 from d_1 and page p from d_(p-1); p >= 3
    return "mayss.turn_page.d1" if new_r == 2 else "mayss.turn_page.dpm1"


def install(rec: Recorder) -> None:
    """Instrument the spokeseq modules; call after importing spokeseq.cli."""
    mods = {
        name: importlib.import_module(f"spokeseq.{name}")
        for name in (
            "fp", "algebra", "hopf", "hfp", "cobar", "mayss", "charts", "cli", "concurrency"
        )
    }

    distinct: set = set()

    def enumerated(args, kwargs, result):
        pres = args[0]
        degree = args[1] if len(args) > 1 else kwargs["degree"]
        cap = args[2] if len(args) > 2 else kwargs.get("cap")
        if isinstance(cap, dict):
            cap = tuple(sorted(cap.items()))
        # equal presentations built twice count as one
        distinct.add(((pres.p, pres.names, pres.degrees, pres.kinds, pres.bounds), degree, cap))
        rec.counters["algebra.monomials_in_degree.distinct"] = len(distinct)
        rec.count("algebra.monomials_in_degree.monomials_out", len(result))

    def reduced(args, kwargs, result):
        rows = args[0] if args else kwargs["rows_data"]
        rec.count("fp.cells_reduced", len(rows) * (len(rows[0]) if rows else 0))

    def basis_size(counter):
        def on_call(args, kwargs, result):
            rec.count(counter, sum(len(b) for b in result.bases.values()))
        return on_call

    def sized(counter, pick):
        def on_call(args, kwargs, result):
            rec.count(counter, len(pick(args, kwargs, result)))
        return on_call

    functions = [
        ("fp", "rank", "fp.rank", None),
        ("fp", "kernel_basis", "fp.kernel_basis", None),
        ("fp", "quotient_dimension", "fp.quotient_dimension", None),
        ("algebra", "monomials_in_degree", "algebra.monomials_in_degree", enumerated),
        ("hopf", "truncated_hopf", "hopf.setup", None),
        ("hopf", "descent_algebroid", "hopf.setup", None),
        ("hopf", "geometric_algebroid", "hopf.setup", None),
        ("hopf", "check_axioms", "hopf.check_axioms", None),
        ("hopf", "m_k_oracle", "hopf.m_k_oracle", None),
        ("hfp", "basis_in_degree", "hfp.basis_in_degree", None),
        ("cobar", "build_cobar", "cobar.build_cobar", basis_size("cobar.build_cobar.basis_elems")),
        ("cobar", "validate_dsquare", "cobar.validate_dsquare", None),
        ("cobar", "ext_dimensions", "cobar.ext_dimensions", None),
        (
            "cobar",
            "build_resolution_complex",
            "cobar.build_resolution_complex",
            basis_size("cobar.build_resolution_complex.basis_elems"),
        ),
        ("cobar", "resolution_ext_table", "cobar.resolution_ext_table", None),
        ("mayss", "page_one", "mayss.page_one", None),
        (
            "mayss",
            "e1_monomials",
            "mayss.e1_monomials",
            sized("mayss.e1_monomials.cells", lambda a, k, r: r),
        ),
        ("mayss", "turn_page", _turn_page_name, None),
        ("mayss", "d1_monomial", "mayss.d1_monomial", None),
        ("mayss", "d_pminus1_monomial", "mayss.d_pminus1_monomial", None),
        ("mayss", "survivor_table", "mayss.survivor_table", None),
        ("mayss", "a_shift_rank", "mayss.a_shift_rank", None),
        ("charts", "render_svg", "charts.render_svg", sized("charts.svg_bytes", lambda a, k, r: r)),
        ("cli", "_emit", "cli.emit", sized("cli.report_bytes", lambda a, k, r: a[2])),
        ("cli", "_emit_svg", "cli.emit", None),
        (
            "concurrency",
            "deterministic_map",
            "concurrency.deterministic_map",
            sized("concurrency.deterministic_map.items", lambda a, k, r: a[1]),
        ),
    ]
    methods = [
        ("fp", "SparseMatFp", "matmul", "fp.matmul"),
        ("fp", "Subspace", "__init__", "fp.Subspace"),
        ("fp", "Subspace", "reduce", "fp.Subspace"),
        ("fp", "Subspace", "contains", "fp.Subspace"),
        ("fp", "Subspace", "coordinates", "fp.Subspace"),
        ("algebra", "GradedMap", "apply_monomial", "algebra.GradedMap.apply_monomial"),
        ("algebra", "Presentation", "format_monomial", "algebra.format_monomial"),
        ("hopf", "TensorContext", "element", "hopf.TensorContext.element"),
        ("cobar", "DualOperators", "apply_fold", "cobar.DualOperators.apply_fold"),
        # report formatting belongs to emission
        ("cobar", "ExtTable", "format", "cli.emit"),
        ("mayss", "SSPage", "format", "cli.emit"),
        ("mayss", "SegalReport", "format", "cli.emit"),
        ("hopf", "AxiomReport", "format", "cli.emit"),
        ("cli", "RunConfig", "header", "cli.emit"),
    ]

    for mod, attr, name, on_call in functions:
        original = getattr(mods[mod], attr)
        _replace_everywhere(original, rec.wrap(original, name, on_call))
    for mod, cls_name, attr, name in methods:
        cls = getattr(mods[mod], cls_name)
        setattr(cls, attr, rec.wrap(getattr(cls, attr), name))
    rref = mods["fp"].rref
    _replace_everywhere(rref, rec.counter_only(rref, reduced))
