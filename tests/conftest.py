"""Shared fixtures: a reusable Brownian corpus so the slow tests build it
once, the bad time grids that every grid entry must refuse, and a counter
of the entry rules' calls."""

import collections
import re
import sys

import numpy as np
import pytest

from pathcalc import brownian_path, errors

MASTER_SEED = 42
N_EXP = 16
N_PATHS = 200


@pytest.fixture(scope="session")
def brownian_corpus():
    """200 unit-horizon Brownian paths on the 2^16 dyadic grid, fixed seed."""
    return [brownian_path(MASTER_SEED, i, n_exp=N_EXP) for i in range(N_PATHS)]


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


# The twelve ways a time grid can be wrong, and the fragment of
# errors.require_grid's message that names each.  A falling grid fails at the
# first of its entry's start, end and span checks.
GRID_FAULTS = {
    "ragged": "array of real times",
    "text": "array of real times",
    "row": "1-d array of at least 2 times",
    "column": "1-d array of at least 2 times",
    "empty": "1-d array of at least 2 times",
    "one_time": "1-d array of at least 2 times",
    "scalar": "1-d array of at least 2 times",
    "nan_inside": "must be finite, not nan",
    "inf_at_end": "must be finite, not inf",
    "neg_inf_at_start": "must be finite, not -inf",
    "repeated": "strictly increasing",
    "falling": "must start at|horizon must be positive",
}


def bad_grid(fault, a, b):
    """A grid meant to run from a to b, wrong by fault (a key of
    GRID_FAULTS); one_time and scalar hold b."""
    m = 0.5 * (a + b)
    return {
        "ragged": [[a, m], [b]],
        "text": ["a", "b"],
        "row": np.array([[a, m, b]]),
        "column": np.array([[a], [b]]),
        "empty": np.array([]),
        "one_time": np.array([b]),
        "scalar": np.float64(b),
        "nan_inside": np.array([a, np.nan, b]),
        "inf_at_end": np.array([a, m, np.inf]),
        "neg_inf_at_start": np.array([-np.inf, m, b]),
        "repeated": np.array([a, m, m, b]),
        "falling": np.array([b, m, a]),
    }[fault]


def grid_error(fault, name):
    """The match= pattern of bad_grid(fault, ...) fed as parameter name."""
    return f"^{re.escape(name)}[ :].*({GRID_FAULTS[fault]})"


def counted_rules(monkeypatch):
    """Counts of the calls of every errors.require_* rule, require_path,
    require_field, require_ladder, rng.require_stream and _study_point,
    each wrapped in every pathcalc module namespace that holds it."""
    counts = collections.Counter()
    names = [n for n in vars(errors) if n.startswith("require_")] \
        + ["require_path", "require_field", "require_ladder", "require_stream",
           "_study_point"]
    modules = [m for k, m in sys.modules.items()
               if k.startswith("pathcalc.") and m is not None]
    for name in names:
        rule = next(vars(m)[name] for m in modules if name in vars(m))

        def counted(*args, _name=name, _rule=rule, **kwargs):
            counts[_name] += 1
            return _rule(*args, **kwargs)

        for m in modules:
            if vars(m).get(name) is rule:
                monkeypatch.setattr(m, name, counted)
    return counts
