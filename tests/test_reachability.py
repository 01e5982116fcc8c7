"""Only code a command runs, or a cross-check needs, stays in the package.

``test_every_function_is_run_by_a_command_or_kept`` answers a set of small
CLI queries in this process under ``sys.setprofile`` and records every
function entered: every subcommand, all pi-hfp variants, all check presets,
both Ext routes, ``--stabilize``, ``--disable-d1``, ``--svg`` and the error
exits.  Each function and method that ``ast`` finds in ``src/spokeseq`` must
have been entered, or be listed in ``KEPT`` with the reason it stays:

* ``"test_<module>::test_<name>"``: the test that compares against it (the
  paper's reference cross-checks and the helpers only they call);
* ``"perfbench hook"``: a name ``perfbench/tracer.py`` wraps;
* ``"public API"``.

The rule is strict both ways: a ``KEPT`` entry that no longer exists, or
that the queries do reach, fails too.

``test_every_default_is_set_by_a_query_or_kept`` applies the same rule to
defaulted parameters: every parameter with a default, of a function the
queries reach, must receive a value other than its default in at least one
call, or be listed in ``DEFAULTS_KEPT`` with the library signature it
mirrors.  A default that no command ever changes is a constant.
"""

import argparse
import ast
import contextlib
import importlib
import inspect
import io
import os
import sys
from pathlib import Path

import pytest

import spokeseq
import spokeseq.cli as cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(spokeseq.__file__).resolve().parent

CONVERGENCE = "test_acceptance::test_criterion_3_convergence"
CLOSED_FORM = "test_acceptance::test_criterion_2_e1_closed_form"
KUENNETH = "test_mayss::test_kuenneth_assembly_matches_direct_e0_cobar"
GRADED_DIMS = "test_mayss::test_associated_graded_dims"
WEIGHTS = "test_mayss::test_filtration_weights_digit_rule"
LEIBNIZ = "test_mayss::test_d1_matches_leibniz_reference"
FRACTIONS = "test_hfp::test_multiply_fraction_rule"

KEPT = {
    # the digit rule d1_monomial against the Leibniz rule
    "mayss.d1_monomial_reference": LEIBNIZ,
    "mayss._digit": LEIBNIZ,
    # the closed-form E_1 against the cohomology of the associated graded
    "mayss.e1_vs_associated_graded": CLOSED_FORM,
    "mayss.associated_graded_ext_classes": CLOSED_FORM,
    "mayss._line_ext_classes": CLOSED_FORM,
    # its Kuenneth assembly against the weighted cobar of the associated graded
    "mayss.e0_direct_weighted_ext": KUENNETH,
    "mayss._block": KUENNETH,
    # the filtration weights against base-p digit sums
    "mayss.associated_graded_check": GRADED_DIMS,
    "mayss.e0_hopf": GRADED_DIMS,
    "mayss.e0_weight": GRADED_DIMS,
    "mayss.may_filtration_weight": WEIGHTS,
    "mayss.digit_sum": WEIGHTS,
    # the last page against the direct Ext table
    "mayss.einfty_vs_ext": CONVERGENCE,
    "cobar.ExtTable.dim": CONVERGENCE,
    # Ext^0 against a direct count of primitives
    "cobar.ext0_primitives": "test_cobar::test_ext0_equals_primitives",
    # the point ring's products and a-torsion orders against its labels
    "hfp.multiply_full": FRACTIONS,
    "hfp.NegClass.as_theta_fraction": FRACTIONS,
    "hfp.a_torsion_order": "test_acceptance::test_criterion_7_point_ring_dimensions",
    "hfp.PosClass.degree": "test_hfp::test_fraction_product_degree_additivity",
    "hfp.NegClass.degree": "test_hfp::test_negative_solver_matches_brute_force",
    "fp.Subspace.contains": "perfbench hook",
    # reading reports back, and the reprs error messages print
    "cli.parse_report": "public API",
    "grading.SpokeDegree.parse": "public API",
    "grading.TriDegree.parse": "public API",
    "algebra.Element.__repr__": "public API",
    "hopf.TensorContext.format_monomial": "public API",
}

# defaulted parameters that no query sets: each one is a parameter of an
# override and keeps the default of the library method it overrides
DEFAULTS_KEPT = {
    # argparse calls parse_known_args with namespace=None
    "cli._Parser.parse_known_args.namespace": argparse.ArgumentParser.parse_known_args,
}

WINDOW = "-2:1:-2:2"


def queries(out_dir):
    """(argv, expected exit status) pairs, all small."""
    tiny = ["--window", "-1:0:-1:0", "--s-max", "1"]
    units = ["--beta", "2", "--beta-prime", "2"]
    segal = ["segal", "--p", "3", "--n-max", "2", "--window", "-1:0:-2:2", "--s-max", "2"]
    return [
        (["pi-hfp", "--p", "3", "--variant", "full", "--window", WINDOW, "--svg", "--out", out_dir], 0),
        (["pi-hfp", "--p", "3", "--variant", "a_free", "--window", WINDOW], 0),
        (["pi-hfp", "--p", "3", "--variant", "a_inverted", "--window", WINDOW], 0),
        (["pi-hfp", "--p", "3", "--variant", "a_completed_inverted", "--window", WINDOW], 0),
        (["pi-hfp", "--p", "3", "--variant", "spoke_suspension", "--window", WINDOW], 0),
        (["ext", "--p", "3", "--n", "1", *tiny, *units], 0),
        (["ext", "--p", "3", "--n", "1", "--route", "cobar", *tiny], 0),
        (["ext", "--p", "3", "--stabilize", "--n-max", "2", *tiny, *units], 0),
        (["may", "--p", "3", "--n", "1", "--window", WINDOW, "--s-max", "2", "--svg", "--out", out_dir], 0),
        # p = 5 has an intermediate page, copied from E_2
        (["may", "--p", "5", "--n", "1", "--window", "-1:0:-1:1", "--s-max", "1"], 0),
        (segal + units, 0),
        (segal + ["--disable-d1"], 1),
        (["mk", "--p", "3", "--k-max", "4"], 0),
        (["check", "--preset", "sthh", "--p", "3", "--window", "-1:1:-1:1", *units], 0),
        (["check", "--preset", "geometric", "--p", "3", "--window", "0:2:0:0"], 0),
        (["check", "--preset", "truncated", "--p", "3", "--n", "1", "--window", "-1:1:-1:1"], 0),
        (["ext", "--p", "x"], cli.EXIT_CONFIG),
        (["ext", "--p", "4"], cli.EXIT_CONFIG),
        (["segal", "--p", "3", "--window", "0:1:0:1"], cli.EXIT_WINDOW),
    ]


def package_functions():
    """{(file, first line of the def or its first decorator): dotted name}."""
    out = {}

    def walk(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(path, first)] = name
                walk(child, name, path)
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}.{child.name}", path)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, str(path))
    return out


def defaulted_parameters():
    """{(file, first line): [(parameter, dotted name, default)]} of every
    package function with a defaulted parameter; the defaults are read from
    the live objects."""
    out = {}
    for (path, line), name in package_functions().items():
        obj = importlib.import_module(f"spokeseq.{name.split('.')[0]}")
        try:
            for attr in name.split(".")[1:]:
                obj = getattr(obj, attr)
        except AttributeError:  # a nested function
            continue
        if not callable(obj):  # a property
            continue
        params = [
            (param.name, f"{name}.{param.name}", param.default)
            for param in inspect.signature(obj).parameters.values()
            if param.default is not inspect.Parameter.empty
        ]
        if params:
            out[(path, line)] = params
    return out


def _is_default(value, default) -> bool:
    return value is default or (type(value) is type(default) and value == default)


@pytest.fixture(scope="module")
def query_trace(tmp_path_factory):
    """(names of the package functions the queries enter, dotted names of
    the defaulted parameters some call gave another value)."""
    out_dir = str(tmp_path_factory.mktemp("reports"))
    # per-process caches would let an earlier test answer for these queries
    for name, module in list(sys.modules.items()):
        if name.startswith("spokeseq"):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    functions = package_functions()
    watched = defaulted_parameters()
    entered = set()
    set_params = set()

    real_paths = {}  # resolved once per file: the profiler sees every call

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            path = real_paths.get(code.co_filename)
            if path is None:
                path = real_paths[code.co_filename] = os.path.realpath(code.co_filename)
            key = (path, code.co_firstlineno)
            entered.add(key)
            for param, dotted, default in watched.get(key, ()):
                if not _is_default(frame.f_locals[param], default):
                    set_params.add(dotted)

    statuses = []
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv, _ in queries(out_dir):
            sys.setprofile(profile)
            try:
                statuses.append(cli.main(argv))
            finally:
                sys.setprofile(None)
    assert statuses == [want for _, want in queries(out_dir)]
    return {functions[key] for key in entered if key in functions}, set_params


def test_every_function_is_run_by_a_command_or_kept(query_trace):
    defined = set(package_functions().values())
    reached, _ = query_trace
    assert sorted(defined - reached - set(KEPT)) == [], "reached by no command and not KEPT"
    assert sorted(set(KEPT) - defined) == [], "KEPT names that no longer exist"
    assert sorted(set(KEPT) & reached) == [], "KEPT names that a command reaches"


def test_every_default_is_set_by_a_query_or_kept(query_trace):
    reached, set_params = query_trace
    checked = {
        dotted
        for params in defaulted_parameters().values()
        for _, dotted, _ in params
        if dotted.rsplit(".", 1)[0] in reached
    }
    assert sorted(checked - set_params - set(DEFAULTS_KEPT)) == [], "defaults no query changes"
    assert sorted(set(DEFAULTS_KEPT) - checked) == [], "DEFAULTS_KEPT names not reached"
    assert sorted(set(DEFAULTS_KEPT) & set_params) == [], "DEFAULTS_KEPT names a query sets"


def test_every_kept_reason_is_checkable():
    tracer = (ROOT / "perfbench" / "tracer.py").read_text()
    for name, reason in KEPT.items():
        if reason == "perfbench hook":
            assert f'"{name.rsplit(".", 1)[1]}"' in tracer, name
        elif reason != "public API":
            module, test = reason.split("::")
            assert f"def {test}(" in (ROOT / "tests" / f"{module}.py").read_text(), name
    defaults = {
        dotted: default
        for params in defaulted_parameters().values()
        for _, dotted, default in params
    }
    for name, base in DEFAULTS_KEPT.items():
        param = name.rsplit(".", 1)[1]
        assert inspect.signature(base).parameters[param].default == defaults[name], name


def test_engine_has_no_assert_statements():
    # python -O strips assert statements; every check in the engine raises a
    # coded EngineError instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _callee(call: ast.Call) -> str | None:
    """The name a call reaches by: f(...), self.f(...) or cls.f(...)."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return func.attr if func.value.id in ("self", "cls") else None
    return None


def test_no_function_calls_itself():
    # every enumeration is a plain loop; a nested function that called
    # itself would hold itself in its closure cell, a reference cycle per call
    found = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(
            _callee(call) == node.name for call in ast.walk(node) if isinstance(call, ast.Call)
        )
    ]
    assert found == []
