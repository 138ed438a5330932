"""Path families: k paths that agree before a cut, read with a leading row
axis.

Every family query and every eval or eval_many of a functional on a family
must give, in row r, the bits of the same query or read on path r built on
its own, and at each of many times the bits of the read at that time.
"""

import io

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
    bump,
    concat,
    constant_direction,
    constant_functional,
    constant_matrix_field,
    constant_path,
    counterexample_functional,
    d_horizontal,
    d_space,
    dist_stopped,
    estimate_f,
    euler_flow,
    eval_direction,
    fk_residual,
    ito_residual,
    martingale_check,
    mean_functional,
    path_to_csv,
    ramp_path,
    running_avg_direction,
    simulate_sde,
    snap_partition,
    solve_flow,
    stop,
    surface_functional,
)
from pathcalc.functionals import CATALOG
from pathcalc.paths import splice_view, stop_exactly

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
    # row_views builds every row, of the family's type and mode, and row(r)
    # is one of them; a held family's row r is the base stopped at the cut,
    # holding the value that path r on its own holds
    views = fam.row_views()
    for r, alone in enumerate(rows):
        for row in (views[r], fam.row(r)):
            assert type(row) is type(fam) and row.rows is None
            assert row.interp_mode == fam.interp_mode == alone.interp_mode
            if isinstance(fam, StoppedPath):
                assert row.base is alone.base
                assert row.stop_time == alone.stop_time
                assert row.value_at_stop.tobytes() \
                    == alone.eval(fam.horizon).tobytes()
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
def test_eval_on_a_family_equals_eval_on_each_row_bitwise(case):
    fam, rows, ts = case
    for F in _functionals(fam.dim):
        for t in ts:
            got = F.eval(t, fam)
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
def test_vector_and_matrix_eval_on_a_family_equals_eval_on_each_row_bitwise(
        case):
    fam, rows, ts = case
    for F in _vector_and_matrix_functionals(fam.dim):
        for t in ts:
            got = F.eval(t, fam)
            assert got.shape == (fam.rows,) + F.shape, F.label
            for r, path in enumerate(rows):
                want = F.eval(t, fam.row(r))
                assert want.shape == F.shape, F.label
                assert got[r].tobytes() == want.tobytes(), (F.label, t, r)
                assert F.eval(t, path).tobytes() == want.tobytes(), F.label


@st.composite
def family_reads(draw):
    """A family of k rows with m times to read it at: every time of
    ``families``, or k of them, or one.  Fewer times than all keep 0 and
    the cut while there is room, and may repeat a time."""
    fam, rows, ts = draw(families())
    size = draw(st.sampled_from([len(ts), fam.rows, 1]))
    if size < len(ts):
        gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        kept = [0.0, fam.switch][:size]
        ts = np.sort(np.concatenate([kept, gen.choice(ts, size - len(kept))]))
    return fam, rows, ts


@settings(max_examples=60, deadline=None)
@given(family_reads())
def test_family_reads_at_many_times_equal_each_row_and_time_bitwise(case):
    fam, rows, ts = case
    k, m = fam.rows, len(ts)
    for name in QUERIES:
        got = getattr(fam, name)(ts)
        assert got.shape == (k, m, fam.dim), name
        for r, path in enumerate(rows):
            want = getattr(path, name)(ts).tobytes()
            assert got[r].tobytes() == want, (name, r)
            assert getattr(fam.row(r), name)(ts).tobytes() == want, (name, r)
        for j, t in enumerate(ts):
            assert got[:, j].tobytes() == getattr(fam, name)(t).tobytes(), \
                (name, t)
    for F in (_functionals(fam.dim)
              + _vector_and_matrix_functionals(fam.dim)):
        got = F.eval_many(ts, fam)
        assert got.shape == (k, m) + F.shape, F.label
        for r, path in enumerate(rows):
            want = F.eval_many(ts, fam.row(r))
            assert got[r].tobytes() == want.tobytes(), (F.label, r)
            assert F.eval_many(ts, path).tobytes() == want.tobytes(), F.label
        for j, t in enumerate(ts):
            assert got[:, j].tobytes() == F.eval(t, fam).tobytes(), \
                (F.label, t)


@st.composite
def live_families(draw):
    """What a live family is built from: the history x, the cut, the grid
    from the cut, the (n, k, d) values that the owner writes node by node,
    as an Euler step does, the mode, whether filled nodes are then
    rewritten, as a Picard sweep does, and query times before, at and
    after the cut."""
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = draw(st.integers(1, 2))
    mode = draw(st.sampled_from([LINEAR, CADLAG]))
    k = draw(st.integers(1, 5))
    times = np.unique(np.concatenate(
        [[0.0], gen.uniform(0.0, 1.0, draw(st.integers(0, 8))), [1.0]]))
    x = GridPath(times, gen.normal(size=(len(times), dim)), mode)
    mids = (times[:-1] + times[1:]) / 2
    cut = float(draw(st.sampled_from([*times[:-1], *mids])))
    grid = np.unique(np.concatenate(
        [[cut], gen.uniform(cut, 1.0, draw(st.integers(0, 6))), [1.0]]))
    block = gen.normal(size=(len(grid), k, dim))
    ts = np.unique(np.concatenate([times, mids, grid,
                                   gen.uniform(0.0, 1.0, 4)]))
    return x, cut, grid, block, mode, draw(st.booleans()), ts


def _assert_rows_read_alike(views, fam, x, cut, grid, values, mode, ts):
    """Each of views reads as fam.row(r) and as row r's own SplicedPath
    over the filled nodes, bit for bit, at every time and all at once."""
    n = len(fam.seg.times)
    assert len(views) == fam.rows
    for r, view in enumerate(views):
        alone = SplicedPath(x, cut, grid[:n], values[:n, r], mode)
        for name in QUERIES:
            want = getattr(alone, name)(ts).tobytes()
            assert getattr(view, name)(ts).tobytes() == want, (name, n, r)
            assert getattr(fam.row(r), name)(ts).tobytes() == want
            for t in ts[::4]:
                assert getattr(view, name)(t).tobytes() \
                    == getattr(alone, name)(t).tobytes(), (name, t, n, r)


@settings(max_examples=40, deadline=None)
@given(live_families())
def test_row_views_of_a_live_family_equal_each_row_at_every_fill(case):
    x, cut, grid, block, mode, rewrite, ts = case
    values = np.zeros_like(block)
    fam = splice_view(x, cut, grid, values, mode)
    values[0] = block[0]
    for n in range(1, len(grid) + 1):
        fam.seg.fill(n)
        views = fam.row_views()
        _assert_rows_read_alike(views, fam, x, cut, grid, values, mode, ts)
        if n < len(grid):
            # the next node is written after the read: the views of the
            # read still see the n filled nodes, and so does the family
            values[n] = block[n]
            _assert_rows_read_alike(views, fam, x, cut, grid, values, mode,
                                    ts)
        if rewrite:
            values[:n] *= -0.5
            _assert_rows_read_alike(fam.row_views(), fam, x, cut, grid,
                                    values, mode, ts)


def test_a_live_block_builds_one_node_prefix_per_step(monkeypatch):
    # the benchmark workload's drift, -integral / t, reads each row's
    # integral at every Euler step; the 25 rows of a step share one node
    # prefix of the block, not one each (25 x 15)
    from pathcalc import _kernels
    from pathcalc.fk import _simulate_block
    spec = SDESpec(VectorFunctional(lambda t, x: -x.integral_prefix(t) / t,
                                    1, label="-running_avg"),
                   constant_matrix_field([[1.0]]), constant_functional(0.0),
                   builtin("eval"))
    x = ramp_path(1.0, n=33)
    grid = np.linspace(0.25, 1.0, 17)
    want = _simulate_block(spec, grid, x, 1, 0, 25)
    shapes = []
    prefix = _kernels.trapezoid_prefix

    def counted(t, v):
        shapes.append(v.shape)
        return prefix(t, v)

    monkeypatch.setattr(_kernels, "trapezoid_prefix", counted)
    got = _simulate_block(spec, grid, x, 1, 0, 25)
    assert got.tobytes() == want.tobytes()
    assert len(shapes) <= 16
    assert all(shape[1:] == (25, 1) for shape in shapes)


def test_constant_functional_spreads_over_the_family():
    x = constant_path([1.0, 2.0])
    fam = StoppedPath(x, 0.5, np.zeros((3, 2)))
    out = constant_functional(2.5).eval(0.75, fam)
    assert out.tolist() == [2.5, 2.5, 2.5]
    out[0] = 0.0
    assert constant_functional(2.5).eval(0.75, fam)[0] == 2.5
    many = constant_functional(2.5).eval_many([0.25, 0.75], fam)
    assert many.shape == (3, 2) and (many == 2.5).all()


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


_GAUSS, _GAUSS_F = benchmark("gauss_square")
_PARTITION = np.linspace(0.0, 1.0, 5)


@pytest.mark.parametrize("call", [
    lambda fam: concat(fam, 0.5, ramp_path(1.0)),
    lambda fam: concat(ramp_path(1.0), 0.5, fam),
    lambda fam: dist_stopped(fam, 0.5, ramp_path(1.0), 0.5),
    lambda fam: path_to_csv(fam, io.StringIO()),
    lambda fam: snap_partition(_PARTITION, fam),
    lambda fam: ito_residual(builtin("square"), fam, _PARTITION),
    lambda fam: solve_flow(fam, 0.5, eval_direction(1)),
    lambda fam: euler_flow(fam, 0.5, eval_direction(1)),
    lambda fam: estimate_f(_GAUSS, 0.5, fam, n_paths=4),
    lambda fam: fk_residual(_GAUSS_F, _GAUSS, 0.5, fam),
    lambda fam: d_horizontal(builtin("square"), 0.75, fam),
    lambda fam: d_space(builtin("square"), 0, 0.75, fam),
    lambda fam: bump(fam, 0.75, [1.0]),
    lambda fam: stop_exactly(fam, 0.75),
], ids=["concat_head", "concat_tail", "dist_stopped", "path_to_csv",
        "snap_partition", "ito_residual", "solve_flow", "euler_flow",
        "estimate_f", "fk_residual", "d_horizontal", "d_space",
        "bump_past_the_cut", "stop_exactly_past_the_cut"])
@pytest.mark.parametrize("family", [
    lambda: StoppedPath(ramp_path(1.0, n=5), 0.5, [[0.1], [0.2], [0.3]]),
    lambda: StoppedPath(ramp_path(1.0, n=5, interp_mode=CADLAG), 0.5,
                        [[0.1], [0.2], [0.3]]),
    lambda: SplicedPath(ramp_path(1.0, n=5), 0.5, [0.5, 1.0],
                        np.zeros((2, 3, 1))),
], ids=["held_linear", "held_cadlag", "block"])
def test_a_family_is_rejected_where_one_path_is_required(call, family):
    with pytest.raises(DomainError,
                       match=r"family of 3 rows: one path is required; "
                             r"read one with \.row\(r\)$"):
        call(family())


def test_a_held_family_stops_as_itself_past_its_cut_and_as_one_path_before():
    fam = StoppedPath(ramp_path(1.0, n=5), 0.5, [[0.1], [0.2], [0.3]])
    assert stop(fam, 0.75) is fam
    assert stop(fam, 0.5) is fam
    early = stop(fam, 0.25)
    assert early.rows is None
    assert np.array_equal(early.eval(np.array([0.1, 0.6])),
                          stop(ramp_path(1.0, n=5), 0.25).eval(
                              np.array([0.1, 0.6])))
    with pytest.raises(DomainError, match="family of 3 rows"):
        StoppedPath(fam, 0.75)


# ---------------------------------------------------------------------------
# Monte Carlo blocks read as families


def _discounted_spec():
    """A rate read from each path's integral, one body for both routes, and
    a payoff without fn_many, which eval reads row by row."""
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
