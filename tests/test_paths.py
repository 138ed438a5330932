"""Path algebra: exact evaluation, stopping, bumping, splicing, distance."""

import io
import re
import reprlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pathcalc import (
    CADLAG,
    LINEAR,
    ConfigError,
    DomainError,
    MCEstimate,
    GridPath,
    DirectionField,
    PathBase,
    QuotientLadder,
    SDESpec,
    SplicedPath,
    StoppedPath,
    benchmark,
    brownian_path,
    builtin,
    bump,
    check_direction,
    concat,
    constant_direction,
    constant_functional,
    constant_matrix_field,
    constant_path,
    constraint_direction,
    d_gamma,
    d_horizontal,
    d_space,
    dist_stopped,
    estimate_f,
    euler_flow,
    eval_direction,
    expansion_check,
    expansion_rate,
    fk_residual,
    horizontal_from_gamma,
    ito_residual,
    martingale_check,
    midpoint_sum,
    numerical_derivatives,
    path_from_csv,
    path_to_csv,
    probe_boundedness,
    probe_non_anticipative,
    ramp_battery,
    ramp_path,
    recover_gradient,
    relation_residual,
    simulate_sde,
    solve_flow,
    stop,
    stratonovich_integral,
)
from pathcalc.paths import _LOCATE_SEARCH_BELOW, splice_view

from conftest import GRID_FAULTS, bad_grid, grid_error

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
    with pytest.raises(DomainError, match=r"^values must be \(3, d\), "
                                          r"d >= 1, not \(2, 1\)$"):
        GridPath([0.0, 0.5, 1.0], [[0.0], [1.0]])
    with pytest.raises(DomainError):
        GridPath([0.0, 1.0], [[0.0], [1.0]], interp_mode="cubic")
    with pytest.raises(DomainError, match=r"^values must be \(2, d\), "
                                          r"d >= 1, not \(2, 0\)$"):
        GridPath([0.0, 1.0], np.empty((2, 0)))
    for horizon in (0.0, -1.0):
        with pytest.raises(DomainError, match="horizon must be positive"):
            ramp_path(1.0, horizon, n=3)
    with pytest.raises(DomainError, match="endpoints"):
        ramp_path(1.0, 1.0, n=-1)
    for n in (2.5, np.nan, np.inf):
        with pytest.raises(ConfigError, match="^n must be a whole number"):
            ramp_path(1.0, 1.0, n=n)
    # the grids np.linspace gives for a NaN and an infinite horizon, whose
    # first time is NaN too, are named for that, not for their start
    for times in ([np.nan] * 3, [np.nan, np.inf, np.inf], [0.0, 0.5, np.inf]):
        with pytest.raises(DomainError, match="must be finite"):
            GridPath(times, np.zeros((3, 1)))
    for fault in GRID_FAULTS:
        with pytest.raises(DomainError, match=grid_error(fault, "times")):
            GridPath(bad_grid(fault, 0.0, 1.0), [[0.0], [1.0]])


@pytest.mark.parametrize("times, shown", [
    (object(), "<object objec"),
    ([0.0, 10 ** 400], "[0.0, 1000000"),
], ids=["object", "int_too_large"])
def test_times_numpy_cannot_read_as_reals_are_named(times, shown):
    # numpy's TypeError and OverflowError came through, naming no parameter
    with pytest.raises(DomainError, match=r"^times must be an array of real "
                                          rf"times, not {re.escape(shown)}"):
        GridPath(times, [[0.0], [1.0]])
    with pytest.raises(DomainError, match="^seg_times must be an array"):
        SplicedPath(constant_path(0.0), 0.0, times, [[0.0], [1.0]])


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


@pytest.mark.parametrize("mode", [LINEAR, CADLAG])
def test_running_max_of_a_splice_cut_before_its_left_splice_switches(mode):
    # the outer splice switches at 0.3 and reads the sup of its left path,
    # a splice that switches at 0.7, before 0.3
    gen = np.random.default_rng(11)

    def random_path():
        inner = np.sort(gen.uniform(0.0, 1.0, 30))
        times = np.unique(np.concatenate([[0.0], inner, [1.0]]))
        return GridPath(times, gen.normal(size=(len(times), 2)), mode)

    c = concat(stop(random_path(), 0.7), 0.3, random_path())
    knots = c.knots()
    ts = np.unique(np.concatenate([knots, np.linspace(0.0, 1.0, 41)]))
    got = c.running_max_prefix(ts)
    for u, row in zip(ts, got):
        k = np.append(knots[knots <= u], u)
        brute = np.maximum(c.eval(k), c.eval_left(k)).max(axis=0)
        assert np.array_equal(row, brute), u


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
    # a held value given to StoppedPath is copied and frozen too, as a
    # splice's segment values are
    held = np.array([[1.0], [2.0]])
    fam = StoppedPath(constant_path(0.0), 0.5, held)
    held[0, 0] = 99.0
    assert fam.eval(1.0).tolist() == [[1.0], [2.0]]
    with pytest.raises(ValueError, match="read-only"):
        fam.value_at_stop[0, 0] = 99.0


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
    (-0.25, constant_path(1.0),
     r"^s must be a time in \[0, 1\.0\], not -0\.25$"),
    (1.5, constant_path(1.0), r"^s must be a time in \[0, 1\.0\], not 1\.5$"),
    (0.5, constant_path([1.0, 2.0]), "dimension mismatch"),
], ids=["junction_before_zero", "junction_past_horizon", "dimension"])
def test_concat_rejects_a_bad_junction_or_dimension(s, b, match):
    with pytest.raises(DomainError, match=match):
        concat(constant_path(0.0), s, b)


@pytest.mark.parametrize("switch, times, values, mode, match", [
    (1.5, [1.5], [[1.0]], LINEAR,
     r"^switch must be a time in \[0, 1\.0\], not 1\.5$"),
    (0.5, [0.25, 1.0], [[1.0], [2.0]], LINEAR, "start at the switch"),
    (0.5, [0.5, 2.0], [[1.0], [2.0]], LINEAR,
     r"^seg_times\[-1\] must be a time in \[0, 1\.0\], not 2\.0$"),
    (0.5, [0.5, 0.75, 0.75], [[1.0], [2.0], [3.0]], LINEAR,
     "strictly increasing"),
    (0.5, [0.5, 1.0], [[1.0], [2.0]], "spline", "unknown interp_mode"),
    (0.5, [0.5, 1.0], [[np.nan], [1.0]], LINEAR,
     r"^seg_values must be finite, not nan$"),
    (0.5, [0.5, 1.0], [[1.0], [-np.inf]], LINEAR,
     r"^seg_values must be finite, not -inf$"),
    (0.5, [0.5, 1.0], 1.0, LINEAR,
     r"^seg_values must be \(2, 1\) or \(2, k, 1\), not \(\)$"),
    (0.5, [0.5, 1.0], [[1.0, 2.0], [3.0, 4.0]], LINEAR,
     r"^seg_values must be \(2, 1\) or \(2, k, 1\), not \(2, 2\)$"),
] + [(0.5, bad_grid(fault, 0.5, 1.0), [[1.0]], LINEAR,
      grid_error(fault, "seg_times")) for fault in GRID_FAULTS],
    ids=["switch_outside", "segment_starts_elsewhere", "segment_too_long",
         "segment_times_repeat", "unknown_mode", "nan_value", "inf_value",
         "scalar_values", "values_of_another_dim"] + list(GRID_FAULTS))
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


@pytest.mark.parametrize("comment, match", [
    ("# interp_mode", r"^path CSV line 1: expected '# interp_mode = <mode>', "
                      r"not '# interp_mode'$"),
    ("# interp_mode: cadlag_hold", r"^path CSV line 1: expected "),
    ("# interp_mode = ", r"^unknown interp_mode ''$"),
], ids=["no_value", "colon", "empty"])
def test_csv_mode_comment_is_read_by_its_exact_key(comment, match):
    text = f"{comment}\nt,v1\n0.0,1.0\n1.0,2.0\n"
    with pytest.raises(DomainError, match=match):
        path_from_csv(io.StringIO(text))
    # a key that only starts with interp_mode is any other comment
    other = "# interp_modes = cadlag_hold\n# note: interp_mode\n"
    p = path_from_csv(io.StringIO(other + "t,v1\n0.0,1.0\n1.0,2.0\n"))
    assert p.interp_mode == LINEAR


def test_csv_that_is_not_utf8_is_a_domain_error(tmp_path):
    src = tmp_path / "p.csv"
    src.write_bytes(b"\xff\xfe")
    with pytest.raises(DomainError, match=r"^path CSV .*p\.csv: not UTF-8 "):
        path_from_csv(src)


def test_csv_to_none_or_dash_is_stdout(capsys):
    buf = io.StringIO()
    path_to_csv(ramp_path(1.0, n=5), buf)
    for dest in (None, "-"):
        path_to_csv(ramp_path(1.0, n=5), dest)
        assert capsys.readouterr().out == buf.getvalue()


def test_csv_mode_override_and_empty():
    buf = io.StringIO("# interp_mode = cadlag_hold\nt,v1\n0.0,1.0\n1.0,2.0\n")
    p = path_from_csv(buf, interp_mode=LINEAR)
    assert p.interp_mode == LINEAR
    # blank lines are skipped wherever they fall
    q = path_from_csv(io.StringIO("\nt,v1\n\n0.0,1.0\n  \n1.0,2.0\n\n"))
    assert q.times.tolist() == [0.0, 1.0]
    assert q.values.tolist() == [[1.0], [2.0]]
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
    cut, so its caches start empty.  A splice of a bump cuts the bumped
    path at its bump or after it, so the head it keeps jumps."""
    (x,) = draw(shared_grid_paths(count=1, dim=2))
    horizon = x.horizon
    cut = draw(st.integers(0, int(horizon * 32))) / 32.0
    kind = draw(st.sampled_from(["stop", "bump", "splice", "view",
                                 "bump_of_splice", "splice_of_bump"]))
    h = np.array([draw(dyadic), draw(dyadic)])
    bumped_at = cut - draw(st.integers(0, int(cut * 32))) / 32.0
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
        left = bump(x, bumped_at, h) if kind == "splice_of_bump" else x
        spliced = SplicedPath(left, cut, times, values, seg_mode=mode)
        if kind in ("splice", "splice_of_bump"):
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


@pytest.mark.parametrize("make, match", [
    (lambda: StoppedPath(None, 0.5), r"^base must be a path, not None$"),
    (lambda: concat(constant_path(0.0), 0.5, None),
     r"^b must be a path, not None$"),
    (lambda: dist_stopped(ramp_path(1.0), 0.5, [0.0, 1.0], 0.5),
     r"^y must be a path, not \[0\.0, 1\.0\]$"),
    (lambda: path_to_csv(None, io.StringIO()),
     r"^path must be a path, not None$"),
], ids=["stopped_path", "concat", "dist_stopped", "path_to_csv"])
def test_what_is_no_path_is_refused_by_name(make, match):
    with pytest.raises(DomainError, match=match):
        make()


@pytest.mark.parametrize("make, match", [
    (lambda: path_to_csv(ramp_path(1.0), 3),
     r"^dest must be a file name or a text file, not 3$"),
    (lambda: expansion_rate("a", 0.5, ramp_path(1.0)),
     r"^gamma must be a DirectionField, not 'a'$"),
    (lambda: expansion_check(0.5, ramp_path(1.0), gamma="a"),
     r"^gamma must be a DirectionField, not 'a'$"),
], ids=["path_to_csv_dest", "expansion_rate_gamma", "expansion_check_gamma"])
def test_a_file_or_a_field_of_the_wrong_kind_is_refused_by_name(make, match):
    # each raised AttributeError: for write, or for the field's eval
    with pytest.raises(DomainError, match=match):
        make()


def _none_entries():
    """entry: (call, the parameter it names, the rest of the message):
    each passes None where a functional, a path, a list of fields, an SDE
    or a file belongs."""
    x = ramp_path(1.0, n=65)
    F = builtin("eval")
    g = eval_direction(1)
    t = np.linspace(0.0, 1.0, 5)
    real, path = "a functional of shape (), not None", "a path, not None"
    spec, f = benchmark("gauss_square")
    sde = "an SDESpec, not None"
    return {
        "d_horizontal_F": (lambda: d_horizontal(None, 0.5, x), "F", real),
        "d_gamma_F": (lambda: d_gamma(None, g, 0.5, x), "F", real),
        "d_space_F": (lambda: d_space(None, 0, 0.5, x), "F", real),
        "relation_residual_F": (lambda: relation_residual(None, g, 0.5, x),
                                "F", real),
        "d_horizontal_x": (lambda: d_horizontal(F, 0.5, None), "x", path),
        "d_space_x": (lambda: d_space(F, 0, 0.5, None), "x", path),
        "stop": (lambda: stop(None, 0.5), "x", path),
        "bump": (lambda: bump(None, 0.5, [1.0]), "x", path),
        "SplicedPath": (lambda: SplicedPath(None, 0.5, [0.5, 1.0],
                                            [[0.0], [1.0]]), "left", path),
        "recover_gradient_x": (lambda: recover_gradient(F, [g], 0.5, None),
                               "x", path),
        "recover_gradient_fields": (lambda: recover_gradient(F, None, 0.5, x),
                                    "fields", "1 direction fields, not None"),
        "horizontal_from_gamma": (lambda: horizontal_from_gamma(
            F, g, 0.25, None, 0.25), "x", path),
        "expansion_rate": (lambda: expansion_rate(g, 0.5, None), "x", path),
        "expansion_check": (lambda: expansion_check(0.5, None), "x", path),
        "check_direction": (lambda: check_direction(g, 0.5, None), "x",
                            path),
        "ito_residual": (lambda: ito_residual(builtin("square"), None, t),
                         "x", path),
        "stratonovich_integral": (lambda: stratonovich_integral(g, None, t),
                                  "x", path),
        "midpoint_sum": (lambda: midpoint_sum(g, None, t), "x", path),
        "probe_non_anticipative": (lambda: probe_non_anticipative(
            None, samples=2), "F", "a functional, not None"),
        "probe_boundedness": (lambda: probe_boundedness(None, 1.0, samples=2),
                              "F", "a functional, not None"),
        "martingale_check": (lambda: martingale_check(
            None, f, [0.0, 1.0], 0.0, n_paths=2), "spec", sde),
        "estimate_f": (lambda: estimate_f(None, 0.5, x), "spec", sde),
        "simulate_sde": (lambda: simulate_sde(None, 0.5, x), "spec", sde),
        "fk_residual": (lambda: fk_residual(f, None, 0.5, x), "spec", sde),
        "path_from_csv": (lambda: path_from_csv(None), "src",
                          "a file name or a text file, not None"),
    }


@pytest.mark.parametrize("entry", sorted(_none_entries()))
def test_none_is_refused_by_name_before_it_is_read(entry):
    # each read an attribute of None first (a label, horizon or dim, an
    # SDE's dim or horizon, a file's read, or a probe's eval) and raised
    # AttributeError, or TypeError for len(None)
    call, name, rest = _none_entries()[entry]
    with pytest.raises(DomainError, match=f"^{name} must be "
                                          f"{re.escape(rest)}$"):
        call()


def _real_entries():
    """entry: (call of a value, the parameter it names, the word for what
    it must be): each read its value by np.asarray(value, dtype=float)
    with no rule, or by float()."""
    x = ramp_path(1.0, n=17)
    spec, f = benchmark("gauss_square")
    return {
        "constant_functional": (constant_functional, "c", "a real"),
        "constant_direction": (constant_direction, "vec", "reals"),
        "constant_matrix_field": (constant_matrix_field, "mat", "reals"),
        "constant_path": (constant_path, "value", "reals"),
        "bump": (lambda v: bump(x, 0.5, v), "h", "reals"),
        "martingale_check": (lambda v: martingale_check(
            spec, f, [0.0, 1.0], v, n_paths=2), "x0", "reals"),
        "within": (lambda v: MCEstimate(0.0, 1.0, 10).within(v), "reference",
                   "a real"),
        "GridPath": (lambda v: GridPath([0.0, 1.0], v), "values", "reals"),
        "SplicedPath": (lambda v: SplicedPath(x, 0.5, [0.5, 1.0], v),
                        "seg_values", "reals"),
        "ramp_path_slope": (ramp_path, "slope", "reals"),
        "ramp_path_offset": (lambda v: ramp_path(1.0, offset=v), "offset",
                             "reals"),
    }


@pytest.mark.parametrize("value", ["a", None, [[1.0], [1.0, 2.0]]],
                         ids=["text", "none", "ragged"])
@pytest.mark.parametrize("entry", sorted(_real_entries()))
def test_values_that_are_no_reals_are_refused_by_name(entry, value):
    # each raised numpy's ValueError for text and the ragged list, and
    # NaN values, a TypeError or an AttributeError for None
    call, name, kind = _real_entries()[entry]
    with pytest.raises(DomainError, match=f"^{name} must be {kind}, not "
                                          f"{re.escape(reprlib.repr(value))}$"):
        call(value)


@pytest.mark.parametrize("reference", [-2.5, 0, 0.0, np.float64(1.5)])
def test_within_takes_any_finite_real_reference(reference):
    est = MCEstimate(float(reference), 1.0, 10)
    assert est.within(reference) is True
    assert est.within(reference - 4.0) is False


@pytest.mark.parametrize("reference", [np.nan, np.inf, np.array([1.0])],
                         ids=["nan", "inf", "array"])
def test_within_refuses_a_reference_that_is_no_finite_real(reference):
    with pytest.raises(DomainError, match="^reference must be "):
        MCEstimate(0.0, 1.0, 10).within(reference)


@pytest.mark.parametrize("F", [None, "a", object()],
                         ids=["none", "text", "object"])
def test_numerical_derivatives_refuse_what_offers_no_eval(F):
    # None raised AttributeError for F.eval
    with pytest.raises(DomainError, match="^F must be a functional, or offer "
                                          "eval and eval_many, not "):
        numerical_derivatives(F)


@pytest.mark.parametrize("stop_time", [-0.25, 1.5, np.nan])
def test_a_stop_time_outside_the_horizon_is_rejected(stop_time):
    with pytest.raises(DomainError, match=r"^stop_time must be a time in "
                                          rf"\[0, 1\.0\], not {stop_time!r}$"):
        StoppedPath(ramp_path(1.0, n=17), stop_time)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.5, 1.5, "a",
                                 "0.5", b"0.5"],
                         ids=["nan", "inf", "-inf", "-0.5", "1.5", "a",
                              "numeric_text", "bytes"])
@pytest.mark.parametrize("shape", ["float", "0d", "1", "3", "1x1", "2x2",
                                   "list"])
@pytest.mark.parametrize("which", ["grid", "stopped", "spliced"])
def test_bad_times_raise_for_every_shape(bad, shape, which):
    # a time that is no number raised numpy's or float()'s ValueError, on a
    # path and through a functional reading one; now each names its time.
    # Numeric text and bytes were read as the number
    r = ramp_path(1.0, n=17)
    path = {"grid": r, "stopped": bump(r, 0.5, [0.25]),
            "spliced": concat(r, 0.5, constant_path(2.0))}[which]
    ts = {"float": bad, "0d": np.array(bad), "1": np.array([bad]),
          "3": np.array([0.25, bad, 0.75]), "1x1": np.array([[bad]]),
          "2x2": np.array([[0.0, 0.5], [bad, 1.0]]), "list": [bad]}[shape]
    F = builtin("eval")
    reads = [getattr(path, name) for name in QUERIES]
    reads.append(lambda u: F.eval_many(u, path))
    if shape in ("float", "0d"):
        reads.append(lambda u: F.eval(u, path))
    named = "^ts? must be " if isinstance(bad, (str, bytes)) else None
    for read in reads:
        with pytest.raises(DomainError, match=named):
            read(ts)


# ---------------------------------------------------------------------------
# the two routes of a segment's locate: binary search for few times,
# arithmetic for many on a uniform grid


def _route_grid(kind, s, span, n, gen):
    """Segment times from s over span: linspace, the flow solver's grid, two
    nodes, linspace with one inner node moved by an ulp or half a cell, or
    random nodes."""
    if kind == "two":
        return np.array([s, s + span])
    if kind == "random":
        return np.unique(np.concatenate([[s, s + span],
                                         s + gen.random(n - 2) * span]))
    if kind == "solver":
        # as flow._make_grid builds it, where span * n does not overflow
        grid = s + min(span, 1e300) * np.arange(n) / (n - 1)
        grid[0], grid[-1] = s, s + min(span, 1e300)
    else:
        grid = np.linspace(s, s + span, n)
    j = int(gen.integers(1, n - 1)) if n > 2 else 0
    if kind == "ulp" and j:
        # at a subnormal span linspace rounds inner nodes onto the end
        # nodes, so the moved node is kept within them
        grid[j] = np.clip(np.nextafter(grid[j], np.inf if gen.random() < 0.5
                                       else -np.inf), grid[0], grid[-1])
    if kind == "half" and j:
        grid[j] += 0.5 * (grid[j + 1] - grid[j])
    return np.unique(grid)


def _route_queries(times, end, m, gen):
    """m times in [times[0], end]: nodes, the floats just below them,
    points between them, times[-1] and, where end lies past it, held times
    after it."""
    n = len(times)
    j = gen.integers(0, max(n - 1, 1), m)
    cell = times[np.minimum(j + 1, n - 1)] - times[j]
    between = times[j] + gen.random(m) * cell
    nodes = times[gen.integers(0, n, m)]
    below = np.maximum(np.nextafter(nodes, -np.inf), times[0])
    pick = [nodes, below, np.minimum(between, times[-1]),
            np.full(m, times[-1]),
            np.minimum(times[-1] + gen.random(m) * (end - times[-1]), end)]
    return np.choose(gen.integers(0, len(pick), m), pick)


def _assert_chunks_agree(path, ts):
    """Each query over all of ts equals the same times asked in chunks too
    small for the arithmetic route, bit for bit."""
    step = _LOCATE_SEARCH_BELOW - 1
    for name in ("eval", "integral_prefix", "running_max_prefix"):
        whole = getattr(path, name)(ts)
        parts = [getattr(path, name)(ts[i:i + step])
                 for i in range(0, len(ts), step)]
        assert whole.tobytes() == np.concatenate(parts).tobytes(), name


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["linspace", "solver", "two", "ulp", "half",
                        "random"]),
       st.floats(5e-324, 1e308, allow_subnormal=True),
       st.integers(3, 3000), st.sampled_from([LINEAR, CADLAG]),
       st.integers(0, 2 ** 32 - 1))
@example("ulp", 1e-323, 5, LINEAR, 309)
@example("ulp", 1e-323, 4, LINEAR, 0)
@example("ulp", 5e-324, 3, LINEAR, 2)
@example("ulp", 5e-324, 4, CADLAG, 2)
def test_many_times_locate_as_chunks_of_few_do(kind, span, n, mode, seed):
    gen = np.random.default_rng(seed)
    m = _LOCATE_SEARCH_BELOW + int(gen.integers(0, 400))
    dim = int(gen.integers(1, 3))
    # a grid path: its segment starts at 0 and ends at the horizon
    times = _route_grid(kind, 0.0, span, n, gen)
    x = GridPath(times, gen.uniform(-1.0, 1.0, (len(times), dim)), mode)
    _assert_chunks_agree(x, _route_queries(times, times[-1], m, gen))
    # a live splice from s, queried after fills of 1, 2, some and all nodes
    s = span / 4
    times = _route_grid(kind, s, span, n, gen)
    end = s + 1.25 * span
    left = GridPath([0.0, end], gen.uniform(-1.0, 1.0, (2, dim)), mode)
    values = gen.uniform(-1.0, 1.0, (len(times), dim))
    buffer = values.copy()
    view = splice_view(left, s, times, buffer, mode)
    for filled in sorted({1, 2, int(gen.integers(1, len(times) + 1)),
                          len(times)}):
        view.seg.fill(filled)
        # a node past the filled ones reads as NaN, which would show
        buffer[:] = values
        buffer[filled:] = np.nan
        ts = _route_queries(times[:filled], end, m, gen)
        _assert_chunks_agree(view, ts)
        assert not np.isnan(view.eval(ts)).any()


def test_spliced_segment_values_may_be_one_dimensional():
    base = ramp_path(1.0, 1.0, n=5)
    flat = SplicedPath(base, 0.5, [0.5, 0.75, 1.0], [2.0, 3.0, 2.5])
    column = SplicedPath(base, 0.5, [0.5, 0.75, 1.0], [[2.0], [3.0], [2.5]])
    ts = np.linspace(0.0, 1.0, 17)
    assert flat.dim == 1 and flat.rows is None
    for query in ("eval", "eval_left", "integral_prefix",
                  "running_max_prefix"):
        assert getattr(flat, query)(ts).tobytes() \
            == getattr(column, query)(ts).tobytes()


def test_the_path_interface_leaves_knots_to_its_types():
    with pytest.raises(NotImplementedError):
        PathBase().knots()


# ---------------------------------------------------------------------------
# one rule for a single time: errors.require_time


def _time_entries():
    x = ramp_path(1.0, n=17)
    F = builtin("eval")
    spec, f = benchmark("gauss_square")
    return {
        "stop": ("t", lambda t: stop(x, t)),
        "StoppedPath": ("stop_time", lambda t: StoppedPath(x, t)),
        "bump": ("t", lambda t: bump(x, t, [0.5])),
        "concat": ("s", lambda t: concat(x, t, x)),
        "SplicedPath": ("switch",
                        lambda t: SplicedPath(x, t, [0.5, 1.0], [1.0, 2.0])),
        "dist_stopped_t": ("t", lambda t: dist_stopped(x, t, x, 0.5)),
        "dist_stopped_s": ("s", lambda t: dist_stopped(x, 0.5, x, t)),
        "estimate_f": ("t", lambda t: estimate_f(spec, t, x, n_paths=2)),
        "simulate_sde": ("t", lambda t: simulate_sde(spec, t, x)),
        "fk_residual": ("t", lambda t: fk_residual(f, spec, t, x)),
        "solve_flow_s": ("s", lambda t: solve_flow(x, t, eval_direction(1))),
        "solve_flow_until": ("until", lambda t: solve_flow(
            x, 0.0, eval_direction(1), until=t)),
        "euler_flow_s": ("s", lambda t: euler_flow(x, t, eval_direction(1))),
        "d_horizontal": ("t", lambda t: d_horizontal(F, t, x)),
        "d_gamma": ("t", lambda t: d_gamma(F, eval_direction(1), t, x)),
        "d_space": ("t", lambda t: d_space(F, 0, t, x)),
        "horizontal_from_gamma": ("t", lambda t: horizontal_from_gamma(
            F, eval_direction(1), t, x, 0.125)),
        "expansion_rate": ("t", lambda t: expansion_rate(None, t, x)),
        "expansion_check": ("t0", lambda t: expansion_check(t, x)),
        "check_direction": ("t0", lambda t: check_direction(
            eval_direction(1), t, x)),
        "ramp_battery": ("t0", lambda t: ramp_battery(t)),
    }


_BAD_TIMES = {"text": "a", "numeric_text": "0.5", "bytes": b"0.5",
              "none": None, "list": [0.5], "array": np.array([0.5]),
              "nan": np.nan, "negative": -0.25, "past_horizon": 1.5}


# until=None is the horizon, solve_flow's default
@pytest.mark.parametrize("entry, bad", [
    (entry, bad) for entry in sorted(_time_entries())
    for bad in sorted(_BAD_TIMES)
    if (entry, bad) != ("solve_flow_until", "none")])
def test_every_single_time_goes_through_one_rule(entry, bad):
    # text, None and lists raised builtin ValueError or TypeError, and each
    # entry had its own message for a time outside the horizon, or none
    name, call = _time_entries()[entry]
    t = _BAD_TIMES[bad]
    with pytest.raises(DomainError, match=rf"^{name} must be a time in "
                       rf"\[0, 1\.0\], not {re.escape(reprlib.repr(t))}$"):
        call(t)


def _finite_entries():
    """entry: (parameter, error, whether 0 is allowed, call)."""
    x = ramp_path(1.0, n=17)
    spec, f = benchmark("gauss_square")
    F = builtin("eval")
    return {
        "SDESpec": ("horizon", DomainError, False, lambda v: SDESpec(
            spec.drift, spec.sigma, spec.rate, spec.payoff, horizon=v)),
        "constant_path": ("horizon", DomainError, False,
                          lambda v: constant_path(1.0, horizon=v)),
        "ramp_path": ("horizon", DomainError, False,
                      lambda v: ramp_path(1.0, horizon=v, n=17)),
        "brownian_path": ("horizon", ConfigError, False,
                          lambda v: brownian_path(0, 0, n_exp=4, horizon=v)),
        "benchmark": ("horizon", DomainError, False,
                      lambda v: benchmark("gauss_square", horizon=v)),
        "probe": ("horizon", ConfigError, False, lambda v: (
            probe_non_anticipative(F, samples=2, horizon=v))),
        "probe_boundedness": ("box_radius", ConfigError, False,
                              lambda v: probe_boundedness(F, v, samples=2)),
        "ramp_battery": ("horizon", DomainError, False,
                         lambda v: ramp_battery(0.5, horizon=v)),
        "QuotientLadder": ("eta0", ConfigError, False,
                           lambda v: QuotientLadder(eta0=v)),
        "DirectionField": ("lipschitz_K", DomainError, True,
                           lambda v: DirectionField(lambda t, y: [0.0], 1, v)),
        "recover_gradient": ("cond_max", ConfigError, False, lambda v: (
            recover_gradient(F, [eval_direction(1)], 0.5, x, cond_max=v))),
        "martingale_check": ("k", ConfigError, False, lambda v: (
            martingale_check(spec, f, [0.0, 1.0], 0.0, n_paths=2, k=v))),
        "solve_flow": ("picard_tol", ConfigError, False, lambda v: (
            solve_flow(x, 0.5, eval_direction(1), picard_tol=v))),
        "constraint_direction": ("t_floor", DomainError, False,
                                 lambda v: constraint_direction(v)),
        "horizontal_from_gamma": ("h", DomainError, False, lambda v: (
            horizontal_from_gamma(F, eval_direction(1), 0.25, x, v))),
    }


_BAD_REALS = {"text": "a", "numeric_text": "0.5", "bytes": b"2",
              "none": None, "list": [1.0], "array": np.array([1.0]),
              "nan": np.nan, "inf": np.inf, "negative": -1.0}


@pytest.mark.parametrize("entry, bad", [
    (entry, bad) for entry in sorted(_finite_entries())
    for bad in sorted(_BAD_REALS)])
def test_every_positive_real_goes_through_one_rule(entry, bad):
    # text, None and arrays raised builtin ValueError or TypeError (numpy 2.0
    # read an array of one value as that value); a horizon that no rule
    # checked surfaced as a grid error under another name
    name, error, zero, call = _finite_entries()[entry]
    v = _BAD_REALS[bad]
    shown = v if isinstance(v, float) else reprlib.repr(v)
    kind = "nonnegative" if zero else "positive"
    with pytest.raises(error, match=rf"^{name} must be {kind} and finite, "
                       rf"not {re.escape(str(shown))}$"):
        call(v)
