import pytest
from hypothesis import given, strategies as st

from spokeseq.errors import ConfigError, WindowError
from spokeseq.grading import DegreeWindow, SpokeDegree, TriDegree

degrees = st.builds(
    SpokeDegree, st.integers(-50, 50), st.integers(-50, 50)
)


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
