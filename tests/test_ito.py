"""Partition sums: quadratic covariation, functional updates, two integral
conventions, and the dyadic Brownian corpus."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathcalc import (
    CADLAG,
    ConfigError,
    DomainError,
    GridMismatchError,
    GridPath,
    LINEAR,
    PartitionSequence,
    VectorFunctional,
    brownian_path,
    builtin,
    constant_direction,
    dyadic_subsample,
    ito_residual,
    midpoint_sum,
    partition_integral,
    polygonal,
    quadratic_covariation,
    ramp_path,
    snap_partition,
    stratonovich_integral,
)
from pathcalc import rng
from pathcalc.rng import substream


def _square_integrand():
    return VectorFunctional(lambda t, x: x.eval(t) ** 2, 1, label="x^2",
                            fn_many=lambda ts, x: x.eval(ts) ** 2)


def _random_path(gen, n_lo=8, n_hi=60, dim=1, mode=LINEAR):
    n = int(gen.integers(n_lo, n_hi))
    inner = np.sort(gen.uniform(0.0, 1.0, n))
    times = np.unique(np.concatenate([[0.0], inner, [1.0]]))
    values = gen.normal(size=(len(times), dim))
    return GridPath(times, values, mode)


def _random_subpartition(gen, path):
    n = len(path.times)
    keep = np.sort(gen.choice(np.arange(1, n - 1),
                              size=int(gen.integers(1, n - 1)),
                              replace=False))
    idx = np.concatenate([[0], keep, [n - 1]])
    return path.times[idx]


# ---------------------------------------------------------------------------
# partitions and snapping


def test_partition_sequence_dyadic_and_uniform():
    seq = PartitionSequence(1.0, "dyadic")
    assert len(seq.grid(3)) == 9
    assert seq.mesh(3) == 0.125
    uni = PartitionSequence(2.0, "uniform")
    assert len(uni.grid(4)) == 5
    assert uni.mesh(4) == 0.5
    with pytest.raises(DomainError):
        seq.grid(-1)
    with pytest.raises(DomainError):
        uni.grid(0)


def test_partition_sequence_custom_validation():
    good = PartitionSequence(1.0, "custom",
                             grids=[[0.0, 0.5, 1.0],
                                    [0.0, 0.25, 0.5, 0.75, 1.0]])
    assert good.mesh(0) == 0.5
    assert good.mesh(1) == 0.25
    with pytest.raises(DomainError):
        # second mesh does not shrink
        PartitionSequence(1.0, "custom",
                          grids=[[0.0, 0.5, 1.0], [0.0, 0.25, 0.5, 1.0]])
    with pytest.raises(DomainError):
        PartitionSequence(1.0, "custom", grids=[[0.0, 0.5]])
    with pytest.raises(DomainError):
        PartitionSequence(1.0, "banana")
    with pytest.raises(DomainError):
        PartitionSequence(1.0, "custom")


def test_snap_identity_on_exact_subset():
    p = brownian_path(9, 0, n_exp=10)
    times = dyadic_subsample(p, 6, n_exp=10)
    snapped, values = snap_partition(times, p)
    assert np.array_equal(snapped, times)
    assert np.array_equal(values, p.values[:: 2 ** 4])


def test_snap_moves_to_nearest_knot():
    p = GridPath([0.0, 0.5, 1.0], [[0.0], [2.0], [1.0]])
    snapped, values = snap_partition(np.array([0.0, 0.26, 1.0]), p)
    assert np.array_equal(snapped, np.array([0.0, 0.5, 1.0]))
    assert values[1, 0] == 2.0


def test_snap_rejects_partition_finer_than_grid():
    p = GridPath([0.0, 0.5, 1.0], [[0.0], [2.0], [1.0]])
    with pytest.raises(GridMismatchError):
        snap_partition(np.array([0.0, 0.26, 0.3, 1.0]), p)


def test_snap_input_validation():
    p = constant_path_1()
    with pytest.raises(DomainError):
        snap_partition(np.array([0.5, 0.25]), p)
    with pytest.raises(DomainError):
        snap_partition(np.array([0.0, 1.5]), p)


def constant_path_1():
    return GridPath([0.0, 0.5, 1.0], [[1.0], [1.0], [1.0]])


# ---------------------------------------------------------------------------
# quadratic covariation


def test_qv_of_sampled_identity_is_exact():
    # x(t) = t on the level-n dyadic grid: every increment is 2^-n T, so
    # the bracket at T is exactly 2^-n T^2 in floating point
    x = ramp_path(1.0, 1.0, n=2 ** 12 + 1)
    times = dyadic_subsample(x, 10, n_exp=12)
    qv = quadratic_covariation(x, times)
    assert qv.final()[0, 0] == 2.0 ** -10
    y = ramp_path(1.0, 2.0, n=2 ** 10 + 1)
    times2 = dyadic_subsample(y, 8, n_exp=10)
    assert quadratic_covariation(y, times2).final()[0, 0] == 2.0 ** -8 * 4.0


def test_qv_running_matrices_structure():
    x = brownian_path(21, 0, n_exp=8, dim=2)
    times = dyadic_subsample(x, 5, n_exp=8)
    qv = quadratic_covariation(x, times)
    assert len(qv) == len(times)
    assert np.all(qv.matrices[0] == 0.0)
    assert qv.dim == 2
    # outer products commute entrywise, so symmetry is bitwise
    assert np.array_equal(qv.final(), qv.final().T)
    assert qv.min_eigenvalue() >= -1e-12
    dx = np.diff(x.values[:: 2 ** 3], axis=0)
    assert np.allclose(qv.final(), dx.T @ dx, rtol=1e-12, atol=1e-15)
    assert np.array_equal(qv.component(0, 1), qv.matrices[:, 0, 1])


def test_qv_brownian_near_horizon_value():
    vals = []
    for i in range(20):
        p = brownian_path(42, i, n_exp=12)
        times = dyadic_subsample(p, 10, n_exp=12)
        vals.append(quadratic_covariation(p, times).final()[0, 0])
    assert abs(np.median(vals) - 1.0) < 0.1


# ---------------------------------------------------------------------------
# partition integrals and the functional update


def test_partition_integral_of_gradient_on_ramp():
    # sum 2 x(t_j) dx over x(t) = t is exactly 1 - mesh on dyadic grids
    x = ramp_path(1.0, 1.0, n=2 ** 10 + 1)
    G = VectorFunctional(lambda t, x_: 2.0 * x_.eval(t), 1,
                         fn_many=lambda ts, x_: 2.0 * x_.eval(ts))
    for level in (4, 7, 10):
        times = dyadic_subsample(x, level, n_exp=10)
        mesh = 2.0 ** -level
        got = partition_integral(G, x, times)
        assert got == 1.0 - mesh


def test_partition_integral_shape_mismatch():
    x = brownian_path(0, 0, n_exp=6, dim=2)
    with pytest.raises(DomainError):
        partition_integral(constant_direction([1.0]), x,
                           dyadic_subsample(x, 3, n_exp=6))


def test_ito_residual_exact_zero_on_dyadic_data():
    # dyadic times and values: the quadratic update telescopes with no
    # rounding at all
    gen = substream(33, 0)
    times = np.arange(65) / 64.0
    values = gen.integers(-512, 512, size=(65, 1)) / 1024.0
    x = GridPath(times, values, LINEAR)
    dec = ito_residual(builtin("square"), x, times[::4])
    assert dec.residual == 0.0


@pytest.mark.parametrize("name,dim", [("eval", 1), ("square", 1),
                                      ("product", 2)])
def test_ito_residual_vanishes_for_quadratics(name, dim):
    gen = substream(7, 0)
    F = builtin(name, dim=dim)
    for k in range(25):
        mode = LINEAR if k % 2 else CADLAG
        x = _random_path(gen, dim=dim, mode=mode)
        times = _random_subpartition(gen, x)
        dec = ito_residual(F, x, times)
        assert abs(dec.residual) <= 1e-12 * dec.scale


def test_ito_residual_integral_functional_tracks_mesh():
    # the integral functional is not a pointwise polynomial: left-point
    # time rectangles leave an O(mesh) defect that refines away
    x = brownian_path(5, 3, n_exp=12)
    F = builtin("integral")
    res = []
    for level in (4, 8, 12):
        times = dyadic_subsample(x, level, n_exp=12)
        res.append(abs(ito_residual(F, x, times).residual))
    assert res[2] < res[0]
    assert res[2] <= 1e-3


def test_ito_residual_exp_functional_shrinks():
    x = brownian_path(42, 0, n_exp=12)
    F = builtin("exp_eval")
    r6 = abs(ito_residual(F, x, dyadic_subsample(x, 6, n_exp=12)).residual)
    r12 = abs(ito_residual(F, x, dyadic_subsample(x, 12, n_exp=12)).residual)
    assert r12 < r6


def test_ito_residual_requires_full_derivatives():
    x = brownian_path(0, 0, n_exp=6)
    with pytest.raises(DomainError):
        ito_residual(builtin("running_max"), x,
                     dyadic_subsample(x, 3, n_exp=6))


# ---------------------------------------------------------------------------
# Stratonovich sums


def test_bracket_bridge_is_bitwise():
    p = brownian_path(42, 1, n_exp=12)
    G = _square_integrand()
    for level in range(4, 13):
        r = stratonovich_integral(G, p, dyadic_subsample(p, level, n_exp=12))
        assert r.value == r.ito + 0.5 * r.covariation


def test_midpoint_sum_is_an_independent_match():
    p = brownian_path(42, 2, n_exp=12)
    G = _square_integrand()
    times = dyadic_subsample(p, 10, n_exp=12)
    r = stratonovich_integral(G, p, times)
    m = midpoint_sum(G, p, times)
    assert abs(r.value - m) <= 1e-12 * max(1.0, abs(m))


def test_constant_integrand_collapses_to_left_sum():
    p = brownian_path(42, 3, n_exp=10)
    times = dyadic_subsample(p, 8, n_exp=10)
    G = constant_direction([2.0])
    r = stratonovich_integral(G, p, times)
    assert r.covariation == 0.0
    assert r.value == r.ito
    assert r.ito == partition_integral(G, p, times)


def test_stratonovich_rejects_an_integrand_of_another_dimension():
    p = brownian_path(42, 3, n_exp=6)
    with pytest.raises(DomainError, match="2-dimensional, path is 1"):
        stratonovich_integral(constant_direction([1.0, 2.0]), p,
                              dyadic_subsample(p, 4, n_exp=6))


def test_chain_rule_for_cubes():
    # int x^2 o dx = (x(1)^3 - x(0)^3) / 3 in the midpoint convention
    errs = []
    for i in range(10):
        p = brownian_path(42, i, n_exp=12)
        times = dyadic_subsample(p, 12, n_exp=12)
        r = stratonovich_integral(_square_integrand(), p, times)
        exact = (p.eval(1.0)[0] ** 3 - p.eval(0.0)[0] ** 3) / 3.0
        errs.append(abs(r.value - exact))
    assert np.median(errs) <= 1e-2


def test_chain_rule_error_refines():
    p = brownian_path(42, 4, n_exp=14)
    exact = (p.eval(1.0)[0] ** 3) / 3.0
    errs = [abs(stratonovich_integral(_square_integrand(), p,
                                      dyadic_subsample(p, lvl, n_exp=14)).value
                - exact) for lvl in (6, 10, 14)]
    assert errs[2] < errs[0]


def test_polygonal_preserves_partition_data():
    p = brownian_path(3, 3, n_exp=8, dim=1)
    times = dyadic_subsample(p, 5, n_exp=8)
    poly = polygonal(p, times)
    assert isinstance(poly, GridPath)
    assert np.array_equal(poly.times, times)
    qv_a = quadratic_covariation(p, times).final()
    qv_b = quadratic_covariation(poly, times).final()
    assert np.array_equal(qv_a, qv_b)
    with pytest.raises(DomainError):
        polygonal(p, times[1:])


# ---------------------------------------------------------------------------
# the Brownian corpus


def test_brownian_path_is_reproducible():
    a = brownian_path(1, 2, n_exp=8)
    b = brownian_path(1, 2, n_exp=8)
    assert np.array_equal(a.values, b.values)
    assert a.eval(0.0)[0] == 0.0
    assert a.horizon == 1.0


def test_brownian_increment_variance():
    p = brownian_path(10, 0, n_exp=14)
    inc = np.diff(p.values[:, 0])
    var = inc.var() * 2 ** 14
    assert abs(var - 1.0) < 0.05


@pytest.mark.parametrize("n_exp, dim", [(25, 1), (-1, 1), (16, 0), (16, -1),
                                        (16, 2 ** 8 + 1)])
def test_brownian_path_size_is_checked_before_drawing(n_exp, dim,
                                                      monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew normals before the size check")

    monkeypatch.setattr(rng, "normals", no_draw)
    with pytest.raises(ConfigError, match="2\\*\\*24"):
        brownian_path(0, 0, n_exp=n_exp, dim=dim)


def test_brownian_dim_two_shape():
    p = brownian_path(0, 0, n_exp=6, dim=2)
    assert p.values.shape == (65, 2)


def test_dyadic_subsample_levels():
    p = brownian_path(0, 1, n_exp=8)
    assert np.array_equal(dyadic_subsample(p, 0, n_exp=8),
                          np.array([0.0, 1.0]))
    t8 = dyadic_subsample(p, 8, n_exp=8)
    assert np.array_equal(t8, p.times)
    t5 = dyadic_subsample(p, 5, n_exp=8)
    assert np.all(np.isin(t5, p.times))
    with pytest.raises(DomainError):
        dyadic_subsample(p, 9, n_exp=8)
    odd = GridPath(np.linspace(0, 1, 1000), np.zeros((1000, 1)))
    with pytest.raises(GridMismatchError):
        dyadic_subsample(odd, 3)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 31), st.integers(2, 6))
def test_snap_roundtrip_property(index, level):
    # any dyadic sublevel of a dyadic path snaps to itself
    p = brownian_path(123, index, n_exp=6)
    times = dyadic_subsample(p, level, n_exp=6)
    snapped, _ = snap_partition(times, p)
    assert np.array_equal(snapped, times)
