"""Property test of the config path: hostile documents never escape as tracebacks.

Documents are drawn in the shape of the schema, with leaves that are
sometimes plausible and sometimes hostile (NaN/Infinity tokens, 400-digit
integers, bools, strings, lists, zero, negatives, grid sizes past the
bound).  Each one goes through ``load_config`` as a JSON file, exactly as
the CLI reads it, and must either parse or raise ``ConfigError``.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sicaoc.cli import MAX_GRID_STEPS, ConfigError, load_config, parse_config
from sicaoc.integrators import TimeGrid
from sicaoc.model import ADJOINT_MODES

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

documents = st.fixed_dictionaries({}, optional={
    "params": section({k: leaf(rate) for k in
                       ("mu", "b", "beta", "eta_c", "eta_a", "phi", "rho", "alpha",
                        "omega", "d")}),
    "initial": st.one_of(fraction_sets,
                         section({k: leaf(st.floats(0.0, 1.0)) for k in "sica"})),
    "horizon": leaf(st.one_of(st.floats(min_value=1e-3, max_value=60.0),
                              st.integers(min_value=1, max_value=60))),
    "steps": leaf(grid_size),
    "control": section({
        "u_max": leaf(st.floats(min_value=0.0, max_value=0.99)),
        "relaxation": leaf(st.floats(min_value=0.01, max_value=1.0)),
        "delta_error": leaf(st.floats(min_value=1e-9, max_value=1.0)),
        "max_iterations": leaf(st.one_of(st.integers(min_value=1, max_value=1000),
                                         st.sampled_from([3.0, 2.7, 1e300]))),
    }),
    "adjoint_mode": leaf(st.sampled_from(ADJOINT_MODES)),
    "refinements": leaf(st.one_of(st.lists(grid_size, min_size=3, max_size=5, unique=True),
                                  st.lists(grid_size, max_size=4))),
    "output": section({"csv": leaf(st.just("run.csv")),
                       "manifest": leaf(st.just("run.manifest.json"))}),
})


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "config.json"


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
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
