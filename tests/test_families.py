"""Path families: k paths that agree before a cut, read at one time at once.

Every family query and every eval_family call must give, in row r, the
bits of the same query or eval on path r built on its own.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathcalc import (
    CADLAG,
    LINEAR,
    DomainError,
    Functional,
    GridPath,
    MatrixFunctional,
    SDESpec,
    SplicedPath,
    StoppedPath,
    VectorFunctional,
    benchmark,
    builtin,
    constant_direction,
    constant_functional,
    constant_matrix_field,
    constant_path,
    counterexample_functional,
    estimate_f,
    eval_direction,
    martingale_check,
    mean_functional,
    running_avg_direction,
    simulate_sde,
    surface_functional,
)
from pathcalc.functionals import CATALOG

QUERIES = ("eval", "eval_left", "integral_prefix", "running_max_prefix")


@st.composite
def families(draw):
    """A family on a random grid path, with each of its rows built alone:
    k values held from a cut on, or k grid segments spliced on at the cut
    and ending at or before the horizon.  The query times lie before, at
    and after the cut, on knots and between them, and include 0 and the
    horizon."""
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = draw(st.integers(1, 2))
    mode = draw(st.sampled_from([LINEAR, CADLAG]))
    k = draw(st.integers(1, 5))
    horizon = draw(st.sampled_from([0.5, 1.0, 3.0]))
    inner = gen.uniform(0.0, horizon, draw(st.integers(0, 10)))
    times = np.unique(np.concatenate([[0.0], inner, [horizon]]))
    x = GridPath(times, gen.normal(size=(len(times), dim)), mode)
    mids = (times[:-1] + times[1:]) / 2
    cut = float(draw(st.sampled_from([*times, *mids])))
    if draw(st.sampled_from(["held", "block"])) == "held":
        held = gen.normal(size=(k, dim))
        fam = StoppedPath(x, cut, held)
        rows = [StoppedPath(x, cut, h) for h in held]
        seg_times = np.array([cut])
    else:
        end = cut + (horizon - cut) * draw(st.sampled_from([0.5, 1.0]))
        seg_times = np.unique(np.concatenate(
            [[cut], gen.uniform(cut, end, draw(st.integers(0, 6))), [end]]))
        block = gen.normal(size=(k, len(seg_times), dim))
        fam = SplicedPath(x, cut, seg_times, block.transpose(1, 0, 2), mode)
        rows = [SplicedPath(x, cut, seg_times, b, mode) for b in block]
    ts = np.unique(np.concatenate([times, mids, seg_times,
                                   gen.uniform(0.0, horizon, 4)]))
    return fam, rows, ts


@settings(max_examples=80, deadline=None)
@given(families())
def test_family_queries_equal_each_row_bitwise(case):
    fam, rows, ts = case
    assert fam.rows == len(rows)
    for t in ts:
        for name in QUERIES:
            got = getattr(fam, name)(t)
            assert got.shape == (fam.rows, fam.dim)
            for r, path in enumerate(rows):
                want = getattr(path, name)(t).tobytes()
                assert got[r].tobytes() == want, (name, t, r)
                assert getattr(fam.row(r), name)(t).tobytes() == want
            # a result is the caller's to write into
            got[...] = 99.0
            assert getattr(fam, name)(t).tobytes() != got.tobytes()


def _functionals(dim):
    """Every built-in functional on dim-d paths, the coded derivatives
    hanging off it, and one without fn_many, which is read row by row."""
    found = []
    names = sorted(CATALOG) + (["product"] if dim == 2 else [])
    for name in names:
        for axis in range(dim if name != "product" else 1):
            F = builtin(name, axis=axis, dim=dim)
            found += [G for G in (F, F.partial_t, F.grad, F.hess)
                      if G is not None]
    if dim == 1:
        found += [mean_functional(), surface_functional(),
                  counterexample_functional()]
        found += [benchmark(name)[1] for name in
                  ("gauss_square", "drifted_linear", "discount_const")]
    found.append(Functional(lambda t, x: float(x.eval(t)[-1]) ** 3,
                            label="cube_without_fn_many"))
    return found


@settings(max_examples=60, deadline=None)
@given(families())
def test_eval_family_equals_eval_on_each_row_bitwise(case):
    fam, rows, ts = case
    for F in _functionals(fam.dim):
        for t in ts:
            got = F.eval_family(t, fam)
            assert got.shape == (fam.rows,) + F.shape, F.label
            for r, path in enumerate(rows):
                want = np.asarray(F.eval(t, path), dtype=float).tobytes()
                assert got[r].tobytes() == want, (F.label, t, r)


def _outer(ts, x):
    v = x.eval(ts)
    return v[..., :, None] * v[..., None, :]


def _vector_and_matrix_functionals(dim):
    """Vector and matrix functionals whose bodies broadcast, declared as
    such, and the same bodies read row by row."""
    def twice(t, x):
        return 2.0 * x.eval(t)

    broadcasting_matrix = type("Outer", (Functional,), {"shape": (dim, dim)})
    return [
        eval_direction(dim),
        running_avg_direction(dim),
        constant_direction(np.arange(1.0, dim + 1.0)),
        VectorFunctional(twice, dim, label="twice_by_rows"),
        broadcasting_matrix(_outer, label="outer", fn_many=_outer),
        MatrixFunctional(_outer, (dim, dim), label="outer_by_rows"),
        constant_matrix_field(np.ones((dim, 3))),
    ]


@settings(max_examples=60, deadline=None)
@given(families())
def test_vector_and_matrix_eval_family_equals_eval_on_each_row_bitwise(case):
    fam, rows, ts = case
    for F in _vector_and_matrix_functionals(fam.dim):
        for t in ts:
            got = F.eval_family(t, fam)
            assert got.shape == (fam.rows,) + F.shape, F.label
            for r, path in enumerate(rows):
                want = F.eval(t, fam.row(r))
                assert want.shape == F.shape, F.label
                assert got[r].tobytes() == want.tobytes(), (F.label, t, r)
                assert F.eval(t, path).tobytes() == want.tobytes(), F.label


def test_constant_functional_spreads_over_the_family():
    x = constant_path([1.0, 2.0])
    fam = StoppedPath(x, 0.5, np.zeros((3, 2)))
    out = constant_functional(2.5).eval_family(0.75, fam)
    assert out.tolist() == [2.5, 2.5, 2.5]
    out[0] = 0.0
    assert constant_functional(2.5).eval_family(0.75, fam)[0] == 2.5


def test_held_value_of_the_wrong_shape_is_rejected():
    x = constant_path([1.0, 2.0])
    for held in (np.zeros(3), np.zeros((2, 3)), np.zeros((2, 2, 2))):
        with pytest.raises(DomainError):
            StoppedPath(x, 0.5, held)
    with pytest.raises(DomainError):
        SplicedPath(x, 0.5, [0.5, 1.0], np.zeros((2, 3, 3)))
    with pytest.raises(DomainError):
        SplicedPath(x, 0.5, [0.5, 1.0], np.zeros((2, 2))).row(0)


@pytest.mark.parametrize("view", [
    StoppedPath(constant_path([1.0, 2.0]), 0.5),
    SplicedPath(constant_path([1.0, 2.0]), 0.5, [0.5, 1.0], np.zeros((2, 2))),
], ids=["stopped", "spliced"])
def test_a_single_path_has_no_rows(view):
    with pytest.raises(DomainError, match="a single path has no rows"):
        view.row(0)


# ---------------------------------------------------------------------------
# Monte Carlo blocks read as families


def _discounted_spec():
    """A rate read from each path's integral, one body for both routes, and
    a payoff without fn_many, which eval_family reads row by row."""
    def rate(ts, x):
        return 0.1 + 0.05 * x.integral_prefix(ts)[..., 0]

    return SDESpec(constant_direction([0.2]), constant_matrix_field([[0.8]]),
                   Functional(rate, label="integral_rate", fn_many=rate),
                   Functional(lambda t, x: float(x.eval(t)[0]) ** 3,
                              label="cube"))


def _discount(spec, grid, p):
    # left rectangles summed in time order, one path at a time
    rv = spec.rate.eval_many(grid, p)
    return np.exp(-np.cumsum(rv[:-1] * np.diff(grid)))


# 7 paths in blocks of 3 on a 9-node grid: the last block is not full
@pytest.mark.parametrize("n_paths, block_nodes", [(7, 27), (5, 2 ** 14)])
def test_estimate_equals_the_one_path_route(n_paths, block_nodes,
                                            monkeypatch):
    from pathcalc import fk
    monkeypatch.setattr(fk, "_BLOCK_NODES", block_nodes)
    spec = _discounted_spec()
    x = constant_path(0.3)
    est = estimate_f(spec, 0.2, x, n_paths=n_paths, n_steps=8, seed=4)
    grid = np.linspace(0.2, 1.0, 9)
    ys = np.empty(n_paths)
    for i in range(n_paths):
        p = simulate_sde(spec, 0.2, x, seed=4, index=i, grid=grid)
        ys[i] = _discount(spec, grid, p)[-1] * spec.payoff.eval(1.0, p)
    assert est.value == float(ys.mean())
    assert est.stderr == float(ys.std(ddof=1) / np.sqrt(n_paths))


def test_martingale_check_with_a_path_rate_equals_the_one_path_route(
        monkeypatch):
    from pathcalc import fk
    monkeypatch.setattr(fk, "_BLOCK_NODES", 20)     # 4 paths a block
    spec = _discounted_spec()
    f = spec.payoff
    t_grid = np.linspace(0.0, 1.0, 5)
    x0 = constant_path(0.4)
    rep = martingale_check(spec, f, t_grid, x0, n_paths=10, seed=9)
    H = []
    for i in range(10):
        p = simulate_sde(spec, 0.0, x0, seed=9, index=i, grid=t_grid)
        disc = np.concatenate([[1.0], _discount(spec, t_grid, p)])
        H.append(disc * f.eval_many(t_grid, p))
    D = np.diff(np.array(H), axis=1)
    assert np.array_equal(rep.means, D.mean(axis=0))
    assert np.array_equal(rep.stderrs, D.std(axis=0, ddof=1) / np.sqrt(10))
