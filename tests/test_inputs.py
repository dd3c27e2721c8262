"""Property tests at the input boundary: every parser of outside text returns a
value or raises a ChainoptError, whatever the text.

Generated sizes stay small: integer option values lie in -1..2 and free text
holds no decimal digits, so no generator is asked for more than 256 points.
Fifty examples per property keep the module under a second.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chainopt import (ChainoptError, ExperimentConfig, Kernel, load_distance_matrix,
                      load_point_cloud, parse_config, parse_kernel, space_from_spec)

_NO_DIGITS = st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=24)
_OPTIONS = {"se": ["ls", "var"], "ou": ["ls"], "linear": ["var"], "matern52": ["ls"],
            "grid": ["dim", "per_dim", "extent"], "line": ["n"], "star": ["n"],
            "ellipsoid": ["axes"], "gaussian": [], "subgamma": ["nu", "c"],
            "squaredgp": ["n"], "": [], "torus": []}
_NUMBERS = st.one_of(st.integers(-1, 2).map(str), st.floats(-1.0, 3.0).map(repr))
_VALUES = st.one_of(_NUMBERS, _NUMBERS,
                    st.sampled_from(["nan", "inf", "-inf", "1e999", "0.5:2", "1:x", ":", ""]),
                    _NO_DIGITS)


@st.composite
def _spec_like(draw, heads):
    """``head:key=value,...``, mostly with the head's own keys and well-formed items."""
    head = draw(st.sampled_from(heads + ("", "torus")))
    keys = st.sampled_from(_OPTIONS[head] * 4 + ["kappa", "n", "x", ""])
    items = draw(st.lists(st.tuples(keys, st.sampled_from(["="] * 6 + ["", "=="]), _VALUES),
                          max_size=3))
    return (head + draw(st.sampled_from([":"] * 6 + ["", "::"]))
            + ",".join(k + sep + v for k, sep, v in items))


def _specs(*heads):
    return st.one_of(_NO_DIGITS, _spec_like(heads), _spec_like(heads))


_KERNEL_SPECS = _specs("se", "ou", "linear", "matern52")
_SPACE_SPECS = _specs("grid", "line", "star", "ellipsoid")
_MODEL_SPECS = _specs("gaussian", "subgamma", "squaredgp")


def _returns_or_chainopt_error(fn, *args):
    try:
        fn(*args)
    except ChainoptError:
        pass


@settings(max_examples=50)
@given(_KERNEL_SPECS)
def test_parse_kernel(spec):
    _returns_or_chainopt_error(parse_kernel, spec)


@settings(max_examples=50)
@given(_SPACE_SPECS, st.sampled_from([None, Kernel("se", 0.3), Kernel("linear")]))
def test_space_from_spec(spec, kernel):
    assume(spec.partition(":")[0].strip() != "file")     # file access is load_space's
    _returns_or_chainopt_error(space_from_spec, spec, kernel)


@settings(max_examples=50)
@given(_MODEL_SPECS)
def test_build_model(spec):
    _returns_or_chainopt_error(lambda: ExperimentConfig(model=spec).build_model())


_CONFIG_KEYS = st.sampled_from(["space", "kernel", "model", "u", "a", "eta2", "t_max",
                                "replicates", "trials", "depth_rule", "schedule",
                                "shift", "n_channels", "kappa", "#", ""])
_CONFIG_LINES = st.tuples(
    _CONFIG_KEYS, st.sampled_from([" = ", "=", " "]),
    st.one_of(_VALUES, _KERNEL_SPECS, _SPACE_SPECS, _MODEL_SPECS)).map("".join)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("inputs")


@settings(max_examples=50)
@given(st.one_of(_NO_DIGITS, st.lists(_CONFIG_LINES, max_size=5).map("\n".join)))
def test_parse_config(scratch, text):
    path = scratch / "exp.cfg"
    path.write_text(text, encoding="utf-8")
    _returns_or_chainopt_error(parse_config, str(path))


_TOKENS = st.sampled_from(["0", "1", "2", "-2.5", "nan", "inf", "x", "1e999", "#",
                           "# dim=1", "# dim=2", "# dim=x", "dim=2", "3,", ""])
_SPACE_FILES = st.one_of(
    _NO_DIGITS,
    st.lists(st.lists(_TOKENS, max_size=4).map(" ".join), max_size=6).map("\n".join))


@settings(max_examples=50)
@given(_SPACE_FILES)
def test_space_files(scratch, text):
    path = scratch / "space.txt"
    path.write_text(text, encoding="utf-8")
    for load in (load_point_cloud, load_distance_matrix):
        _returns_or_chainopt_error(load, str(path))
