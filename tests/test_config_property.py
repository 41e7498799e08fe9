"""Property tests of the config path: hostile documents never escape as tracebacks.

Documents are drawn in the shape of the schema, with leaves that are
sometimes plausible and sometimes hostile (NaN/Infinity tokens, 400-digit
integers, bools, strings, lists, zero, negatives, grid sizes past the
bound).  Each one goes through ``load_config`` as a JSON file, exactly as
the CLI reads it, and must either parse or raise ``ConfigError``.  Small
documents of the same shape also run whole subcommands through
``cli.main`` through ``cli_run.run_cli``, which checks the README's
exit-code and stderr contract, and that every ``wrote`` line names a file.
A character the output-path rule rejects, in any output path of an
otherwise valid document, must be a config error that writes nothing.
"""

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sicaoc.cli import MAX_GRID_STEPS, MAX_ITERATIONS, ConfigError, load_config, parse_config
from sicaoc.integrators import TimeGrid
from sicaoc.model import ADJOINT_MODES

from cli_run import run_cli

HUGE = 10 ** 400

hostile = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, HUGE, -HUGE, 1e308, 5e-324,
                     0, 0.0, -0.0, -1, -2.5, MAX_GRID_STEPS + 1, True, False, None,
                     "", "1", [], [1], {}]),
    st.integers(min_value=10 ** 399, max_value=HUGE),
    st.text(max_size=3),
)


@st.composite
def leaf(draw, plausible):
    """A plausible value most of the time, a hostile one about one time in six."""
    return draw(hostile) if draw(st.integers(0, 5)) == 5 else draw(plausible)


def section(entries):
    """An object holding some of ``entries``, or a hostile value."""
    return leaf(st.fixed_dictionaries({}, optional=entries))


rate = st.floats(min_value=1e-3, max_value=3.0)
fraction_sets = st.sampled_from([
    {"s": 0.6, "i": 0.2, "c": 0.1, "a": 0.1}, {"s": 1, "i": 0, "c": 0, "a": 0},
    {"s": 0.5, "i": 0.5}, {"a": 0.1}, {"s": 0.25, "i": 0.25, "c": 0.25, "a": 0.25}])
grid_size = st.one_of(st.integers(min_value=-2, max_value=300),
                      st.sampled_from([0, -1, MAX_GRID_STEPS, MAX_GRID_STEPS + 1, HUGE]))


def output_path(name):
    """``name`` most of the time, else one holding a line break, control or lone surrogate."""
    return st.sampled_from([name] * 5 + ["a\nb.csv", "a\x00b.csv", "a\x85b.csv",
                                         "a\u2028b.csv", "a\u2029b.csv", "a\udcffb.csv"])


def config_documents(sizes, max_iterations):
    """Documents in the schema's shape; ``steps`` and refinements come from ``sizes``."""
    return st.fixed_dictionaries({}, optional={
        "params": section({k: leaf(rate) for k in
                           ("mu", "b", "beta", "eta_c", "eta_a", "phi", "rho", "alpha",
                            "omega", "d")}),
        "initial": st.one_of(fraction_sets,
                             section({k: leaf(st.floats(0.0, 1.0)) for k in "sica"})),
        "horizon": leaf(st.one_of(st.floats(min_value=1e-3, max_value=60.0),
                                  st.integers(min_value=1, max_value=60))),
        "steps": leaf(sizes),
        "control": section({
            "u_max": leaf(st.floats(min_value=0.0, max_value=0.99)),
            "relaxation": leaf(st.floats(min_value=0.01, max_value=1.0)),
            "delta_error": leaf(st.floats(min_value=1e-9, max_value=1.0)),
            "max_iterations": max_iterations,
        }),
        "adjoint_mode": leaf(st.sampled_from(ADJOINT_MODES)),
        "refinements": leaf(st.one_of(
            st.lists(sizes, min_size=3, max_size=5, unique=True),
            st.lists(sizes, max_size=4))),
        "output": section({"csv": leaf(output_path("run.csv")),
                           "manifest": leaf(output_path("run.manifest.json"))}),
    })


documents = config_documents(grid_size, leaf(st.one_of(
    st.integers(min_value=1, max_value=1000), st.sampled_from([3.0, 2.7, 1e300]))))


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "config.json"


@settings(max_examples=300)
@given(doc=documents, default_steps=st.sampled_from([100, 1000]))
def test_config_parses_or_is_a_config_error(config_path, doc, default_steps):
    config_path.write_text(json.dumps(doc))   # NaN and Infinity become bare tokens
    try:
        config = load_config(str(config_path), default_steps)
    except ConfigError:
        return
    assert len(set(config.refinements)) == len(config.refinements) >= 3
    for steps in (config.grid.steps, *config.refinements):   # orders' grids too
        assert steps <= MAX_GRID_STEPS
        assert 0.0 < TimeGrid(0.0, config.grid.tf, steps).h < math.inf
    resolved = config.resolved_dict()
    replay = json.loads(json.dumps(resolved, allow_nan=False))
    assert replay == resolved
    # the manifest-replay promise: the recorded config resolves to itself
    assert parse_config(replay, default_steps).resolved_dict() == resolved


# Grids and iteration budgets small enough that a few hundred whole runs
# take seconds; a hostile max_iterations is drawn from values the config
# rejects, huge budgets (1e300, 10 ** 400) included, since the config caps
# the budget at MAX_ITERATIONS before anything runs.
small_grid_size = st.one_of(st.integers(min_value=-2, max_value=40),
                            st.sampled_from([0, -1, MAX_GRID_STEPS + 1, HUGE]))
small_documents = config_documents(small_grid_size, st.one_of(
    st.integers(min_value=1, max_value=25),
    st.sampled_from([0, -1, 2.7, 3.0, math.nan, True, "3", None, [], -HUGE, HUGE, 1e300,
                     MAX_ITERATIONS + 1])))
commands = st.sampled_from([["simulate", "--method", m] for m in
                            ("euler", "rk2", "rk4", "dp45")]
                           + [["compare"], ["orders"], ["optimize"]])


@settings(max_examples=500)
@given(doc=small_documents, argv=commands)
# a sweep that stops short writes its CSV and manifest, then exits 3;
# few drawn documents reach it
@example(doc={"steps": 10, "control": {"max_iterations": 1}}, argv=["optimize"])
# a newline, or another line break of str.splitlines, in a written path
# used to split its `wrote` line
@example(doc={"steps": 10, "output": {"csv": "a\nb.csv"}},
         argv=["simulate", "--method", "rk4"])
@example(doc={"steps": 10, "output": {"csv": "a\u2028b.csv"}},
         argv=["simulate", "--method", "rk4"])
# a lone surrogate in a written path used to fail its `wrote` line on a
# strict UTF-8 stdout, after the files were written
@example(doc={"steps": 10, "output": {"csv": "a\udcffb.csv"}},
         argv=["simulate", "--method", "rk4"])
# finite states whose sum overflows used to crash the manifest's strict-JSON dump
@example(doc={"horizon": 13.62560649408172, "steps": 3}, argv=["simulate", "--method", "rk4"])
def test_cli_keeps_its_exit_contract(doc, argv):
    code, _, _, files = run_cli(argv, doc)
    assert code in (0, 2, 3, 4)
    if code == 2:
        assert files == []


# Every character the output-path rule rejects, one strategy per branch of
# the rule: the C0 controls, DEL and the C1 controls, the line separators,
# the lone surrogates, which run_cli's strict UTF-8 stdout cannot print.
rejected_characters = st.one_of(
    st.sampled_from([chr(c) for c in range(0x20)]),
    st.sampled_from([chr(c) for c in range(0x7f, 0xa0)]),
    st.sampled_from(["\u2028", "\u2029"]),
    st.sampled_from([chr(c) for c in range(0xd800, 0xe000)]))


@settings(max_examples=200)
@given(argv=commands, char=rejected_characters,
       template=st.sampled_from(["{}run.csv", "run{}.csv", "run.csv{}", "sub{}dir/run.csv"]),
       where=st.sampled_from(["--out", "csv", "manifest"]))
def test_rejected_character_in_any_output_path_is_a_config_error(argv, char, template,
                                                                 where):
    # the document is valid and runs every command without the path
    doc = {"steps": 10, "refinements": [10, 20, 40]}
    path = template.format(char)
    if where == "--out":
        argv = argv + ["--out", path]
    else:
        doc["output"] = {where: path}
    code, _, err, files = run_cli(argv, doc)
    assert code == 2
    assert err[0].startswith("error: config: ")
    assert files == []
