import pytest
from hypothesis import given, strategies as st

from spokeseq.algebra import EXT, POLY, TRUNC, GeneratorSpec
from spokeseq.errors import BookkeepingError, ConfigError, WindowError
from spokeseq.fp import SparseMatFp
from spokeseq.grading import DegreeWindow, SpokeDegree, TriDegree
from spokeseq.hfp import NegClass

degrees = st.builds(
    SpokeDegree, st.integers(-50, 50), st.integers(-50, 50)
)
# a small range, so that equal degrees are drawn often
near_degrees = st.builds(SpokeDegree, st.integers(-2, 2), st.integers(-2, 2))
tridegrees = st.builds(TriDegree, near_degrees, st.integers(0, 2), st.integers(0, 2))


def test_addition_examples():
    # |a|^2 = |a_plane|: (0,-1)+(0,-1) = (0,-2)
    assert SpokeDegree(0, -1) + SpokeDegree(0, -1) == SpokeDegree(0, -2)
    assert SpokeDegree(1, -1) + SpokeDegree(0, 0) == SpokeDegree(1, -1)
    assert SpokeDegree(2, -2) + SpokeDegree(1, 1) == SpokeDegree(3, -1)


def test_virtual_dim_examples():
    assert SpokeDegree(0, -1).virtual_dim == -1
    # the norm class sits in degree (2, 2(p-1)); at p = 3 that is (2, 4), dim 2p = 6
    assert SpokeDegree(2, 4).virtual_dim == 6
    assert SpokeDegree(1, 1).virtual_dim == 2


@given(degrees, degrees)
def test_group_laws(d1, d2):
    assert d1 + d2 == d2 + d1
    assert (d1 + d2) - d2 == d1
    assert (d1 + d2).virtual_dim == d1.virtual_dim + d2.virtual_dim


@given(degrees, degrees, degrees)
def test_associativity(d1, d2, d3):
    assert (d1 + d2) + d3 == d1 + (d2 + d3)


def test_parse_format_roundtrip():
    for text in ["2-2@", "1-1@", "0+1@", "-3+14@", "0-1@"]:
        assert SpokeDegree.parse(text).format() == text
    assert SpokeDegree.parse("2-2@") == SpokeDegree(2, -2)
    with pytest.raises(ConfigError):
        SpokeDegree.parse("2-2")
    with pytest.raises(ConfigError):
        SpokeDegree.parse("nope@")


def test_tridegree_roundtrip():
    t = TriDegree(SpokeDegree(5, 0), 1, 1)
    assert t.format() == "5+0@|1|1"
    assert TriDegree.parse("5+0@|1|1") == t


def test_window_enumeration():
    assert DegreeWindow(0, 0, 0, 0, s_max=6).degrees() == [SpokeDegree(0, 0)]
    w = DegreeWindow(0, 1, -1, 0, s_max=6)
    pts = w.degrees()
    assert len(pts) == 4
    assert pts == sorted(pts)
    assert len(DegreeWindow(-2, 2, -2, 2, s_max=6).degrees()) == 25


def test_empty_window_rejected():
    with pytest.raises(WindowError):
        DegreeWindow(1, 0, 0, 0, s_max=6)
    with pytest.raises(ConfigError):
        DegreeWindow.parse("1:2:3", 6)


@given(degrees, degrees, st.integers(-5, 5), st.lists(degrees, max_size=5))
def test_degree_arithmetic_is_componentwise(a, b, k, ds):
    # a degree is a tuple, but + and * never concatenate or repeat it
    for got, want in (
        (a + b, (a.m + b.m, a.n + b.n)),
        (a - b, (a.m - b.m, a.n - b.n)),
        (a * k, (a.m * k, a.n * k)),
        (k * a, (a.m * k, a.n * k)),
        (sum(ds, SpokeDegree(0, 0)), (sum(d.m for d in ds), sum(d.n for d in ds))),
    ):
        assert type(got) is SpokeDegree
        assert tuple(got) == want


@given(st.lists(near_degrees, max_size=8))
def test_degrees_order_and_hash_by_m_then_n(ds):
    assert sorted(ds) == sorted(ds, key=lambda d: (d.m, d.n))
    assert len(set(ds)) == len({(d.m, d.n) for d in ds})
    for a, b in zip(ds, ds[1:]):
        assert (a == b) == ((a.m, a.n) == (b.m, b.n))
        assert a != b or hash(a) == hash(b)


@given(st.lists(tridegrees, max_size=8))
def test_tridegrees_order_and_hash_by_total_s_f(ts):
    def key(t):
        return (t.total.m, t.total.n, t.s, t.f)

    assert sorted(ts) == sorted(ts, key=key)
    assert len(set(ts)) == len({key(t) for t in ts})
    for a, b in zip(ts, ts[1:]):
        assert (a == b) == (key(a) == key(b))
        assert a != b or hash(a) == hash(b)


def test_degree_reprs():
    assert repr(SpokeDegree(1, -2)) == "SpokeDegree(m=1, n=-2)"
    assert str(SpokeDegree(1, -2)) == "1-2@"
    assert repr(TriDegree(SpokeDegree(0, 0), 1, 2)) == (
        "TriDegree(total=SpokeDegree(m=0, n=0), s=1, f=2)"
    )


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: GeneratorSpec("g", SpokeDegree(2, 0), "cubic"), ConfigError,
         "unknown generator kind 'cubic'"),
        (lambda: GeneratorSpec("t", SpokeDegree(2, 0), TRUNC), ConfigError,
         "truncated generator t needs bound >= 1"),
        (lambda: GeneratorSpec("y", SpokeDegree(2, 0), POLY, 3), ConfigError,
         "generator y: bound only valid for trunc, and 2 for ext"),
        (lambda: GeneratorSpec("x", SpokeDegree(2, -2), EXT), ConfigError,
         "exterior generator x must have odd parity, degree 2-2@"),
        (lambda: GeneratorSpec("y", SpokeDegree(1, -1), POLY), ConfigError,
         "generator y of kind poly must have even parity, degree 1-1@"),
        (lambda: GeneratorSpec("y", SpokeDegree(0, 0), POLY), ConfigError,
         "generator y may not sit in degree 0+0@"),
        (lambda: NegClass(2, 1, 1), ConfigError,
         "bad negative-cone label NegClass(eps=2, j=1, k=1)"),
        (lambda: NegClass(eps=0, j=1, k=0), ConfigError,
         "bad negative-cone label NegClass(eps=0, j=1, k=0)"),
        (lambda: DegreeWindow(0, 0, 1, 0, s_max=1), WindowError, "empty window m:[0,0] n:[1,0]"),
        (lambda: DegreeWindow(0, 0, 0, 0, s_max=-1), WindowError, "negative s_max -1"),
        (lambda: SparseMatFp(2, 1, 3, {(0, 1): 1}), BookkeepingError,
         "entry (0,1) out of range 2x1"),
    ],
)
def test_validating_value_types_raise_coded_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == f"[{error.code}] {message}"
