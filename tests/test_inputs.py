"""Property tests at the input boundary: every parser of outside text returns a
value or raises a ChainoptError, whatever the text.

Generated sizes stay small: integer option values lie in -1..2 and free text
holds no decimal digits, so no generator is asked for more than 256 points.
Fifty examples per property keep the module under a second.
"""

import contextlib
import io

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chainopt import (ChainoptError, ExperimentConfig, Kernel, load_distance_matrix,
                      load_point_cloud, parse_config, parse_kernel, space_from_spec)
from chainopt.cli import main

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
                                "shift", "seed_base", "n_channels", "kappa", "#", ""])
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


_PATHS = {"--space": "space.txt", "--config": "exp.cfg", "--out": "out.csv"}
_SANE = {"--mode": ("greedy", "exact"), "--schedule": ("geometric", "entropy"),
         "--depth-rule": ("halflog2", "omega"), "--epsilon": ("0.5", "1.5"), "--u": ("1", "2"),
         "--a": ("2",), "--eta2": ("0.01",), "--t": ("0", "3"), "--shift": ("0", "1"),
         "--seed": ("0", "7"), "--kernel": ("se:ls=0.5", "matern32:ls=1")}
_COMMANDS = {"cover": ("--space", "--epsilon", "--mode", "--out"),
             "tree build": ("--space", "--schedule", "--u", "--shift", "--out"),
             "optimize": ("--space", "--kernel", "--u", "--a", "--eta2", "--t", "--depth-rule",
                          "--schedule", "--seed", "--out"),
             **{f"validate-{suite}": ("--config", "--out")
                for suite in ("upper", "lower", "lemmas")}}
_VALID_SPACES = ("# dim=1\n0\n1\n2.5\n", "# dim=2\n0 0\n1 0\n0 1\n1 1\n",
                 "3\n0 1 2\n1 0 1\n2 1 0\n")
_VALID_LINES = ("space = line:n=5", "space = star:n=6", "space = grid:dim=2,per_dim=2",
                "kernel = se:ls=0.5", "schedule = entropy", "u = 1", "t_max = 3",
                "model = squaredgp:n=2", "depth_rule = omega", "replicates = 2")


def _flag_value(draw, flag, scratch, fuzz):
    if flag in _PATHS:
        if fuzz:
            return draw(st.sampled_from([str(scratch), str(scratch / "missing" / "x")]))
        return str(scratch / _PATHS[flag])
    if fuzz:
        return draw(_KERNEL_SPECS if flag == "--kernel" else _VALUES)
    return draw(st.sampled_from(_SANE[flag]))


@st.composite
def _argv(draw, scratch):
    """A subcommand with its flags, at most one of them fuzzed or left out, and now and
    then a stray token."""
    command = draw(st.sampled_from(sorted(_COMMANDS) * 3 + ["tree", "bench", ""]))
    flags = _COMMANDS.get(command, ())
    fault = draw(st.sampled_from((None,) * (len(flags) + 1) + flags))
    argv = command.split()
    for flag in flags:
        if flag != fault or draw(st.booleans()):
            argv += [flag, _flag_value(draw, flag, scratch, flag == fault)]
    if not draw(st.integers(0, 7)):
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from(["--bogus", "--out", "-x", "--", "nan", "-h"])))
    return argv


_CONFIGS = st.lists(st.one_of(st.sampled_from(_VALID_LINES), _CONFIG_LINES),
                    max_size=4).map("\n".join)


@settings(max_examples=60)
@given(data=st.data(), space=st.one_of(st.sampled_from(_VALID_SPACES), _SPACE_FILES),
       config=_CONFIGS)
def test_cli_exit_codes(scratch, data, space, config):
    # every input exits 0, 1, 2 or 3 with a message, never a traceback; the
    # suites run 20 trials unless the config says otherwise
    (scratch / "space.txt").write_text(space, encoding="utf-8")
    (scratch / "exp.cfg").write_text("trials = 20\n" + config, encoding="utf-8")
    argv = data.draw(_argv(scratch))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:       # argparse: usage errors and --help
            code = exc.code
    assert code in (0, 1, 2, 3)
