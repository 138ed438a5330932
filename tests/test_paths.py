"""Path algebra: exact evaluation, stopping, bumping, splicing, distance."""

import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathcalc import (
    CADLAG,
    LINEAR,
    DomainError,
    GridPath,
    SplicedPath,
    StoppedPath,
    bump,
    concat,
    constant_path,
    dist_stopped,
    path_from_csv,
    path_to_csv,
    ramp_path,
    stop,
)
from pathcalc.paths import splice_view

# dyadic rationals keep +/- and interpolation at shared knots exact, so the
# metric identities below can be asserted with tolerance zero
dyadic = st.integers(-4096, 4096).map(lambda k: k / 1024.0)


@st.composite
def shared_grid_paths(draw, count=1, dim=1):
    n = draw(st.integers(2, 10))
    gaps = draw(st.lists(st.integers(1, 32), min_size=n - 1, max_size=n - 1))
    times = np.concatenate([[0.0], np.cumsum(gaps, dtype=float)]) / 32.0
    mode = draw(st.sampled_from([LINEAR, CADLAG]))
    paths = []
    for _ in range(count):
        values = np.array([[draw(dyadic) for _ in range(dim)]
                           for _ in range(n)])
        paths.append(GridPath(times, values, mode))
    return paths


# ---------------------------------------------------------------------------
# GridPath basics


def test_gridpath_rejects_bad_grids():
    with pytest.raises(DomainError):
        GridPath([0.5, 1.0], [[0.0], [1.0]])  # must start at 0
    with pytest.raises(DomainError):
        GridPath([0.0, 0.0, 1.0], [[0.0], [1.0], [2.0]])
    with pytest.raises(DomainError):
        GridPath([0.0, 1.0], [[0.0], [np.nan]])
    with pytest.raises(DomainError):
        GridPath([0.0], [[1.0]])
    with pytest.raises(DomainError):
        GridPath([0.0, 1.0], [[0.0], [1.0]], interp_mode="cubic")
    with pytest.raises(DomainError, match="d >= 1"):
        GridPath([0.0, 1.0], np.empty((2, 0)))
    for horizon in (0.0, -1.0):
        with pytest.raises(DomainError, match="horizon must be positive"):
            ramp_path(1.0, horizon, n=3)
    with pytest.raises(DomainError, match="endpoints"):
        ramp_path(1.0, 1.0, n=-1)
    # the grids np.linspace gives for a NaN and an infinite horizon, whose
    # first time is NaN too, are named for that, not for their start
    for times in ([np.nan] * 3, [np.nan, np.inf, np.inf], [0.0, 0.5, np.inf]):
        with pytest.raises(DomainError, match="must be finite"):
            GridPath(times, np.zeros((3, 1)))


def test_eval_at_nodes_is_stored_data():
    times = np.array([0.0, 0.3, 0.7, 1.0])
    values = np.array([[1.0], [-2.0], [0.25], [5.0]])
    for mode in (LINEAR, CADLAG):
        p = GridPath(times, values, mode)
        assert np.array_equal(p.eval(times), values)


def test_linear_interpolates_cadlag_holds():
    p_lin = GridPath([0.0, 1.0], [[0.0], [2.0]], LINEAR)
    p_hold = GridPath([0.0, 1.0], [[0.0], [2.0]], CADLAG)
    assert p_lin.eval(0.5)[0] == 1.0
    assert p_hold.eval(0.5)[0] == 0.0
    assert p_hold.eval(1.0)[0] == 2.0
    # left limits: continuous for linear, previous value for cadlag
    assert p_lin.eval_left(1.0)[0] == 2.0
    assert p_hold.eval_left(1.0)[0] == 0.0
    assert p_hold.eval_left(0.0)[0] == 0.0


def test_eval_outside_domain_raises():
    p = constant_path(1.0)
    with pytest.raises(DomainError):
        p.eval(-0.1)
    with pytest.raises(DomainError):
        p.eval(1.5)


def test_integral_prefix_ramp_exact_dyadic():
    # x(s) = s on a dyadic grid: trapezoid prefix equals t^2/2 to the bit
    r = ramp_path(1.0, 1.0, n=129)
    got = r.integral_prefix(r.times)[:, 0]
    assert np.array_equal(got, r.times ** 2 / 2.0)


def test_integral_prefix_cadlag_left_rectangles():
    p = GridPath([0.0, 0.5, 1.0], [[1.0], [3.0], [0.0]], CADLAG)
    assert p.integral_prefix(0.5)[0] == 0.5
    assert p.integral_prefix(1.0)[0] == 0.5 + 1.5
    assert p.integral_prefix(0.75)[0] == 0.5 + 0.75


def test_running_max_zigzag():
    p = GridPath([0.0, 0.25, 0.5, 1.0], [[0.0], [2.0], [-1.0], [1.5]], LINEAR)
    assert p.running_max_prefix(0.25)[0] == 2.0
    assert p.running_max_prefix(0.8)[0] == 2.0
    # between 0 and the first peak the interpolant leads
    assert p.running_max_prefix(0.125)[0] == 1.0


# ---------------------------------------------------------------------------
# stop / bump / concat


def test_stop_freezes_future_values():
    r = ramp_path(1.0, 1.0, n=257)
    s = stop(r, 0.5)
    assert s.eval(0.25)[0] == 0.25
    assert s.eval(0.5)[0] == 0.5
    assert s.eval(0.75)[0] == 0.5
    assert s.eval(1.0)[0] == 0.5
    # prefix integral keeps growing at the frozen value
    assert s.integral_prefix(1.0)[0] == 0.125 + 0.5 * 0.5


def test_stop_is_idempotent_and_trivial_at_horizon():
    r = ramp_path(1.0, 1.0, n=65)
    s = stop(r, 0.25)
    assert stop(s, 0.75) is s
    assert stop(s, 0.25) is s
    assert stop(r, 1.0) is r
    earlier = stop(s, 0.125)
    assert isinstance(earlier, StoppedPath)
    assert earlier.base is r
    assert earlier.eval(0.9)[0] == 0.125


def test_stop_at_zero_is_constant():
    r = ramp_path(1.0, 1.0, n=65)
    s = stop(r, 0.0)
    ts = np.linspace(0.0, 1.0, 17)
    assert np.all(s.eval(ts) == 0.0)


def test_bump_of_flat_path():
    z = constant_path(0.0)
    b = bump(z, 0.5, 1.0)
    assert b.eval(0.25)[0] == 0.0
    assert b.eval(0.5)[0] == 1.0
    assert b.eval(1.0)[0] == 1.0
    assert b.eval_left(0.5)[0] == 0.0


def test_bump_keeps_prefix_bitwise():
    r = ramp_path(1.0, 1.0, n=129)
    b = bump(r, 0.5, 0.125)
    before = r.times[r.times < 0.5]
    assert np.array_equal(b.eval(before), r.eval(before))
    assert np.array_equal(b.integral_prefix(before), r.integral_prefix(before))
    assert b.eval(0.5)[0] == 0.625


def test_bump_zero_is_the_stopped_path():
    r = ramp_path(1.0, 1.0, n=65)
    b = bump(r, 0.5, 0.0)
    ts = np.linspace(0.0, 1.0, 33)
    assert np.array_equal(b.eval(ts), stop(r, 0.5).eval(ts))


def test_bump_vector_two_dim():
    p = constant_path([1.0, -1.0])
    b = bump(p, 0.5, [2.0, 0.5])
    assert np.array_equal(b.eval(0.75), np.array([3.0, -0.5]))
    assert np.array_equal(b.eval(0.25), np.array([1.0, -1.0]))
    with pytest.raises(DomainError):
        bump(p, 0.5, [1.0])


def test_bump_mutating_caller_array_is_safe():
    h = np.array([1.0])
    b = bump(constant_path(0.0), 0.5, h)
    h[0] = 99.0
    assert b.eval(1.0)[0] == 1.0


def test_concat_step_jump():
    a = constant_path(1.0)
    b = constant_path(2.0)
    c = concat(a, 0.5, b)
    assert c.eval(0.25)[0] == 1.0
    assert c.eval(0.5)[0] == 2.0
    assert c.eval_left(0.5)[0] == 1.0
    assert c.eval(1.0)[0] == 2.0
    assert c.integral_prefix(1.0)[0] == 0.5 * 1.0 + 0.5 * 2.0


def test_concat_with_matching_constant_equals_stop():
    r = ramp_path(1.0, 1.0, n=65)
    s = 0.5
    b = constant_path(r.eval(s), horizon=1.0)
    c = concat(r, s, b)
    ts = np.linspace(0.0, 1.0, 101)
    assert np.array_equal(c.eval(ts), stop(r, s).eval(ts))


def test_concat_at_zero_is_second_path():
    a = constant_path(7.0)
    b = ramp_path(2.0, 1.0, n=33)
    c = concat(a, 0.0, b)
    ts = np.linspace(0.0, 1.0, 17)
    assert np.array_equal(c.eval(ts), b.eval(ts))


def test_concat_rejects_short_tail():
    a = constant_path(0.0, horizon=2.0)
    b = constant_path(1.0, horizon=0.5)
    with pytest.raises(DomainError):
        concat(a, 0.5, b)


@pytest.mark.parametrize("s, b, match", [
    (-0.25, constant_path(1.0), "junction"),
    (1.5, constant_path(1.0), "junction"),
    (0.5, constant_path([1.0, 2.0]), "dimension mismatch"),
], ids=["junction_before_zero", "junction_past_horizon", "dimension"])
def test_concat_rejects_a_bad_junction_or_dimension(s, b, match):
    with pytest.raises(DomainError, match=match):
        concat(constant_path(0.0), s, b)


@pytest.mark.parametrize("switch, times, values, mode, match", [
    (1.5, [1.5], [[1.0]], LINEAR, "switch time outside"),
    (0.5, [0.25, 1.0], [[1.0], [2.0]], LINEAR, "start at the switch"),
    (0.5, [0.5, 2.0], [[1.0], [2.0]], LINEAR, "past the horizon"),
    (0.5, [0.5, 0.75, 0.75], [[1.0], [2.0], [3.0]], LINEAR,
     "strictly increasing"),
    (0.5, [0.5, 1.0], [[1.0], [2.0]], "spline", "unknown interp_mode"),
], ids=["switch_outside", "segment_starts_elsewhere", "segment_too_long",
        "segment_times_repeat", "unknown_mode"])
def test_splice_rejects_a_bad_segment(switch, times, values, mode, match):
    with pytest.raises(DomainError, match=match):
        SplicedPath(constant_path(0.0), switch, times, values, mode)


# ---------------------------------------------------------------------------
# the stopped-path distance


def test_dist_reflexive_zero():
    r = ramp_path(1.0, 1.0, n=65)
    assert dist_stopped(r, 0.5, r, 0.5) == 0.0


def test_dist_constant_gap():
    x = constant_path(0.0)
    y = constant_path(1.0)
    assert dist_stopped(x, 1.0, y, 1.0) == 1.0


def test_dist_ramp_vs_zero_matches_dense_oracle():
    # sup |(s wedge 1) - 0| = 1 and |t - s| = 0, so the distance is 1;
    # cross-checked against brute-force evaluation on a dense grid
    x = ramp_path(1.0, 1.0, n=257)
    y = constant_path(0.0)
    d = dist_stopped(x, 1.0, y, 1.0)
    dense = np.linspace(0.0, 1.0, 4097)
    xs, ys = stop(x, 1.0), stop(y, 1.0)
    oracle = float(np.abs(xs.eval(dense) - ys.eval(dense)).max())
    assert oracle == 1.0
    assert d == abs(1.0 - 1.0) + oracle


def test_dist_same_path_different_stop_times():
    r = ramp_path(1.0, 1.0, n=129)
    # values differ by at most 0.5 (the frozen gap), times by 0.5
    assert dist_stopped(r, 0.25, r, 0.75) == 0.5 + 0.5


def test_dist_sees_cadlag_left_limits():
    # paths equal at every knot but with different jump targets in between
    x = GridPath([0.0, 0.5, 1.0], [[0.0], [3.0], [0.0]], CADLAG)
    y = GridPath([0.0, 0.5, 1.0], [[0.0], [0.0], [0.0]], CADLAG)
    d = dist_stopped(x, 1.0, y, 1.0)
    assert d == 3.0


def test_dist_requires_matching_shapes():
    with pytest.raises(DomainError):
        dist_stopped(constant_path(0.0), 0.5, constant_path(0.0, horizon=2.0),
                     0.5)
    with pytest.raises(DomainError):
        dist_stopped(constant_path(0.0), 0.5, constant_path([0.0, 1.0]), 0.5)


@settings(max_examples=40, deadline=None)
@given(shared_grid_paths(count=2), st.integers(0, 9), st.integers(0, 9))
def test_dist_symmetry(paths, i, j):
    x, y = paths
    t = float(x.times[i % len(x.times)])
    s = float(x.times[j % len(x.times)])
    assert dist_stopped(x, t, y, s) == dist_stopped(y, s, x, t)


@settings(max_examples=40, deadline=None)
@given(shared_grid_paths(count=3), st.integers(0, 9))
def test_dist_triangle_exact_on_shared_grids(paths, i):
    # dyadic data on one grid: every arithmetic step is exact, so the
    # triangle inequality must hold with no tolerance at all
    x, y, z = paths
    t = float(x.times[i % len(x.times)])
    dxz = dist_stopped(x, t, z, t)
    dxy = dist_stopped(x, t, y, t)
    dyz = dist_stopped(y, t, z, t)
    assert dxz <= dxy + dyz


@settings(max_examples=40, deadline=None)
@given(shared_grid_paths(count=1), st.integers(0, 9), st.integers(0, 9))
def test_stop_idempotence_values(paths, i, j):
    (x,) = paths
    t = float(x.times[i % len(x.times)])
    u = float(x.times[j % len(x.times)])
    twice = stop(stop(x, t), u)
    once = stop(x, min(t, u))
    assert np.array_equal(twice.eval(x.times), once.eval(x.times))


# ---------------------------------------------------------------------------
# CSV round trip


def test_csv_round_trip_bitwise(tmp_path):
    gen = np.random.default_rng(5)
    times = np.concatenate([[0.0], np.sort(gen.uniform(0.0, 1.0, 20)), [1.0]])
    times = np.unique(times)
    values = gen.normal(size=(len(times), 3))
    p = GridPath(times, values, CADLAG)
    f = tmp_path / "p.csv"
    path_to_csv(p, f)
    q = path_from_csv(f)
    assert q.interp_mode == CADLAG
    assert np.array_equal(q.times, p.times)
    assert np.array_equal(q.values, p.values)
    # a second write is byte-identical
    buf1, buf2 = io.StringIO(), io.StringIO()
    path_to_csv(p, buf1)
    path_to_csv(q, buf2)
    assert buf1.getvalue() == buf2.getvalue()


def test_csv_header_and_mode_comment():
    buf = io.StringIO()
    path_to_csv(constant_path([1.0, 2.0]), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# interp_mode = linear"
    assert lines[1] == "t,v1,v2"


def test_csv_mode_override_and_empty():
    buf = io.StringIO("# interp_mode = cadlag_hold\nt,v1\n0.0,1.0\n1.0,2.0\n")
    p = path_from_csv(buf, interp_mode=LINEAR)
    assert p.interp_mode == LINEAR
    with pytest.raises(DomainError):
        path_from_csv(io.StringIO("t,v1\n"))


# ---------------------------------------------------------------------------
# views keep the interpolation mode of what they view


def _cadlag_steps():
    return GridPath([0.0, 0.5, 1.0], [[0.0], [1.0], [2.0]], CADLAG)


def test_concat_of_stopped_cadlag_view_holds():
    tail = stop(_cadlag_steps(), 0.75)
    assert tail.interp_mode == CADLAG
    c = concat(constant_path(0.0), 0.25, tail)
    assert c.interp_mode == CADLAG
    # the tail is 0 on [0, 0.5), so the spliced path is 0 on [0.25, 0.75)
    assert c.eval(0.5)[0] == 0.0


def test_csv_of_stopped_cadlag_view_keeps_mode():
    buf = io.StringIO()
    path_to_csv(stop(_cadlag_steps(), 0.75), buf)
    assert buf.getvalue().splitlines()[0] == "# interp_mode = cadlag_hold"
    buf.seek(0)
    assert path_from_csv(buf).eval(0.25)[0] == 0.0


def test_csv_of_bumped_cadlag_view_round_trips():
    b = bump(_cadlag_steps(), 0.75, [1.0])
    buf = io.StringIO()
    path_to_csv(b, buf)
    buf.seek(0)
    q = path_from_csv(buf)
    assert q.eval(0.6)[0] == 1.0
    ts = np.linspace(0.0, 1.0, 41)
    assert np.array_equal(q.eval(ts), b.eval(ts))
    assert np.array_equal(q.eval_left(ts), b.eval_left(ts))


def test_nan_time_is_a_domain_error():
    with pytest.raises(DomainError):
        ramp_path(1.0).eval(np.nan)
    with pytest.raises(DomainError):
        stop(ramp_path(1.0), 0.5).integral_prefix([0.25, np.nan])


# ---------------------------------------------------------------------------
# the live view a solver fills in place


@settings(max_examples=60, deadline=None)
@given(shared_grid_paths(count=1, dim=2), st.data())
def test_live_view_equals_frozen_splice(paths, data):
    (left,) = paths
    mode = data.draw(st.sampled_from([LINEAR, CADLAG]))
    switch = float(left.times[data.draw(st.integers(0, len(left.times) - 2))])
    n = data.draw(st.integers(1, 8))
    gaps = data.draw(st.lists(st.integers(1, 8), min_size=n - 1,
                              max_size=n - 1))
    times = switch + np.concatenate([[0.0], np.cumsum(gaps, dtype=float)]) \
        * (left.horizon - switch) / (8.0 * n)
    values = np.array(data.draw(st.lists(
        st.floats(-8.0, 8.0, allow_nan=False), min_size=2 * n,
        max_size=2 * n))).reshape(n, 2)
    for filled in range(1, n + 1):
        frozen = SplicedPath(left, switch, times[:filled], values[:filled],
                             seg_mode=mode)
        # nodes past the filled ones are NaN: reading one would show
        buffer = values.copy()
        buffer[filled:] = np.nan
        live = splice_view(left, switch, times, buffer, mode)
        live.seg.fill(filled)
        end = times[filled - 1]
        ts = np.concatenate([left.times[left.times <= end], times[:filled],
                             np.linspace(0.0, end, 9)])
        for name in ("eval", "eval_left", "integral_prefix",
                     "running_max_prefix"):
            want = getattr(frozen, name)(ts)
            assert getattr(live, name)(ts).tobytes() == want.tobytes(), name
        # nothing is cached: rewriting filled values shows on the next query
        buffer[:filled] *= -0.5
        frozen = SplicedPath(left, switch, times[:filled], buffer[:filled],
                             seg_mode=mode)
        assert live.integral_prefix(ts).tobytes() \
            == frozen.integral_prefix(ts).tobytes()
        assert live.running_max_prefix(ts).tobytes() \
            == frozen.running_max_prefix(ts).tobytes()


@pytest.mark.parametrize("path", [
    bump(ramp_path(1.0, n=3), 0.75, [1.0]),
    concat(constant_path(0.0), 0.5, constant_path(1.0)),
], ids=["bumped_ramp", "concat_with_jump"])
def test_csv_rejects_a_linear_path_with_a_jump(path):
    # one row per knot would read back as a ramp across the jump
    assert path.interp_mode == LINEAR
    with pytest.raises(DomainError):
        path_to_csv(path, io.StringIO())


# ---------------------------------------------------------------------------
# queries on one side of a stop or switch, mixed queries and scalars

QUERIES = ("eval", "eval_left", "integral_prefix", "running_max_prefix")


@st.composite
def surgery_views(draw):
    """(make, cut, probe times): make() builds a fresh stopped, bumped,
    spliced or live spliced view of a random path whose surgery point is
    cut, so its caches start empty."""
    (x,) = draw(shared_grid_paths(count=1, dim=2))
    horizon = x.horizon
    cut = draw(st.integers(0, int(horizon * 32))) / 32.0
    kind = draw(st.sampled_from(["stop", "bump", "splice", "view",
                                 "bump_of_splice"]))
    h = np.array([draw(dyadic), draw(dyadic)])
    n = 1 if cut == horizon else draw(st.integers(2, 6))
    gaps = draw(st.lists(st.integers(1, 8), min_size=n - 1, max_size=n - 1))
    times = cut + np.concatenate([[0.0], np.cumsum(gaps, dtype=float)]) \
        * (horizon - cut) / (8.0 * n)
    values = np.array([[draw(dyadic), draw(dyadic)] for _ in range(n)])
    mode = draw(st.sampled_from([LINEAR, CADLAG]))
    filled = draw(st.integers(1, n))
    # nodes past the filled ones are NaN: reading one would show
    buffer = values.copy()
    buffer[filled:] = np.nan

    def make():
        if kind == "stop":
            return stop(x, cut)
        if kind == "bump":
            return bump(x, cut, h)
        if kind == "view":
            view = splice_view(x, cut, times, buffer, mode)
            view.seg.fill(filled)
            return view
        spliced = SplicedPath(x, cut, times, values, seg_mode=mode)
        if kind == "splice":
            return spliced
        later = times[-1] if times[-1] > cut else cut
        return bump(spliced, later, h)

    probes = np.unique(np.concatenate([x.times, times, [cut],
                                       np.linspace(0.0, horizon, 17)]))
    return make, cut, probes


@settings(max_examples=80, deadline=None)
@given(surgery_views())
def test_one_sided_mixed_and_scalar_queries_agree(case):
    make, cut, probes = case
    at = np.array([cut])
    before = probes[probes < cut]
    after = probes[probes > cut]
    sets = [before, after, np.concatenate([before, at]),
            np.concatenate([at, after]), probes, probes[:0]]
    for name in QUERIES:
        warm = make()
        for ts in sets:
            got = getattr(make(), name)(ts)
            assert got.shape == (len(ts), warm.dim)
            # per-time scalar and one-element queries on a view whose
            # caches the array queries have filled
            one = [getattr(warm, name)(np.array([t]))[0] for t in ts]
            each = [getattr(warm, name)(float(t)) for t in ts]
            for want in getattr(warm, name)(ts), one, each:
                want = np.array(want).reshape(got.shape)
                assert want.tobytes() == got.tobytes(), (name, ts)


@settings(max_examples=40, deadline=None)
@given(surgery_views())
def test_writing_into_a_result_leaves_the_next_query_unchanged(case):
    make, cut, probes = case
    view = make()
    for name in QUERIES:
        for ts in (probes[probes < cut], probes[probes >= cut], probes):
            first = getattr(view, name)(ts)
            keep = first.copy()
            first[...] = 99.0
            assert getattr(view, name)(ts).tobytes() == keep.tobytes()
        for t in (0.0, cut, view.horizon):
            first = getattr(view, name)(t)
            keep = first.copy()
            first[...] = 99.0
            assert getattr(view, name)(t).tobytes() == keep.tobytes()


@settings(max_examples=80, deadline=None)
@given(surgery_views())
def test_running_max_is_the_max_over_the_values_the_view_holds(case):
    # the views are piecewise constant or linear between their knots, so
    # the sup over [0, u] is attained at a knot, as a left limit at one, or
    # at u itself
    make, cut, probes = case
    view = make()
    knots = view.knots()
    for u in probes:
        seen = knots[knots <= u]
        held = np.vstack([view.eval(seen), view.eval_left(seen[seen > 0]),
                          view.eval(u)[None]])
        assert np.array_equal(view.running_max_prefix(u), held.max(axis=0)), u


@pytest.mark.parametrize("held", [np.nan, np.inf, -np.inf])
def test_a_non_finite_held_value_is_rejected(held):
    x = ramp_path(1.0, n=17)
    with pytest.raises(DomainError, match="held value must be finite"):
        bump(x, 0.5, [held])
    with pytest.raises(DomainError, match="held value must be finite"):
        StoppedPath(x, 0.5, [[0.0], [held]])


@pytest.mark.parametrize("mode", [LINEAR, CADLAG])
@pytest.mark.parametrize("cut", [0.0, 0.3, 0.5, 0.875])
def test_integral_past_a_stop_grows_from_the_integral_at_it(mode, cut):
    gen = np.random.default_rng(5)
    times = np.concatenate([[0.0], np.sort(gen.uniform(0.0, 1.0, 12)), [1.0]])
    x = GridPath(times, gen.normal(size=(14, 2)), mode)
    u = np.linspace(cut, 1.0, 9)
    for view in stop(x, cut), bump(x, cut, [0.25, -1.5]):
        # the integral at the stop itself is the base's, with nothing cached
        want = view.integral_prefix(cut) \
            + (u - cut)[:, None] * view.value_at_stop
        for _ in range(2):
            assert view.integral_prefix(u).tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.5, 1.5])
@pytest.mark.parametrize("shape", ["float", "0d", "1", "3", "1x1", "2x2"])
@pytest.mark.parametrize("which", ["grid", "stopped", "spliced"])
def test_bad_times_raise_for_every_shape(bad, shape, which):
    r = ramp_path(1.0, n=17)
    path = {"grid": r, "stopped": bump(r, 0.5, [0.25]),
            "spliced": concat(r, 0.5, constant_path(2.0))}[which]
    ts = {"float": bad, "0d": np.array(bad), "1": np.array([bad]),
          "3": np.array([0.25, bad, 0.75]), "1x1": np.array([[bad]]),
          "2x2": np.array([[0.0, 0.5], [bad, 1.0]])}[shape]
    for name in QUERIES:
        with pytest.raises(DomainError):
            getattr(path, name)(ts)
