import numpy as np
import pytest

from diffbank import (ConfigError, NumericalError, calibrate, calibrate_jacobi,
                      exact_moments, make_operator, reset_spmm_count,
                      spectral_imbalance, spmm_call_count)
from diffbank.calibration import (DEFAULT_GRID, DEFAULT_MARGIN, MomentVector, _split_masses,
                                  estimate_moments, jackson_coefficients,
                                  reconstruct_density)
from diffbank.rng import rng_for

from conftest import dense_shifted, random_graph


def chebval_trace(g, order):
    """Independent trace oracle: eigh + Clenshaw evaluation per degree."""
    lam = np.linalg.eigvalsh(dense_shifted(g))
    out = np.empty(order + 1)
    for k in range(order + 1):
        coef = np.zeros(k + 1)
        coef[k] = 1.0
        out[k] = np.polynomial.chebyshev.chebval(lam, coef).sum()
    return out


def test_exact_moments_match_eigendecomposition_trace():
    rng = rng_for(0, "calexact")
    for trial in range(12):
        g = random_graph(rng, int(rng.integers(3, 24)))
        m = exact_moments(make_operator(g, "shifted"), order=12).values
        oracle = chebval_trace(g, 12)
        assert np.max(np.abs(m - oracle)) < 1e-9 * max(1.0, g.n)


def test_exact_moments_hand_values(p2, k3):
    # P2 spectrum {-1, +1}: T_k sums to 2 for even k, 0 for odd k
    m = exact_moments(make_operator(p2, "shifted"), order=6).values
    assert np.allclose(m, [2, 0, 2, 0, 2, 0, 2], atol=1e-12)
    # K3 spectrum {-1, 1/2, 1/2}; all weights exactly representable
    m3 = exact_moments(make_operator(k3, "shifted"), order=2).values
    t2 = (2 * 1 - 1) + 2 * (2 * 0.25 - 1)
    assert m3[0] == 3.0
    assert abs(m3[1] - (-1 + 0.5 + 0.5)) < 1e-12
    assert abs(m3[2] - t2) < 1e-12


def test_exact_moments_node_guard():
    rng = rng_for(1, "guard")
    g = random_graph(rng, 80)
    with pytest.raises(ConfigError):
        exact_moments(make_operator(g, "shifted"), order=4)


def test_estimate_moments_concentrates():
    rng = rng_for(2, "stoch")
    g = random_graph(rng, 40)
    op = make_operator(g, "shifted")
    exact = exact_moments(op, order=8).values
    est = estimate_moments(op, order=8, probes=4000, seed=7).values
    # gaussian probe standard error ~ sqrt(2n)/sqrt(R) ~ 0.14 per moment
    assert np.max(np.abs(est - exact)) < 0.6


def test_estimate_moments_spmm_budget():
    rng = rng_for(4, "budget")
    g = random_graph(rng, 20)
    op = make_operator(g, "shifted")
    reset_spmm_count()
    estimate_moments(op, order=9, probes=8, seed=0)
    assert spmm_call_count() == 9


def test_estimate_moments_rejects_bad_args(k3):
    op = make_operator(k3, "shifted")
    with pytest.raises(ConfigError):
        estimate_moments(op, order=0)
    with pytest.raises(ConfigError):
        estimate_moments(op, probes=0)
    with pytest.raises(ValueError):
        estimate_moments(make_operator(k3, "dad"))


def test_jackson_coefficients_shape():
    for order in (1, 4, 20, 50):
        gk = jackson_coefficients(order)
        assert gk.shape == (order + 1,)
        assert gk[0] == pytest.approx(1.0, abs=1e-14)
        assert np.all(np.diff(gk) < 0)
        # the final coefficient cancels analytically: cos(pi*k/N) and the
        # sin/tan term are equal and opposite at k = order
        assert gk[-1] == pytest.approx(0.0, abs=1e-14)
        assert np.all(gk[:-1] > 0)


def test_density_nonnegative_unit_mass():
    rng = rng_for(5, "density")
    for trial in range(6):
        g = random_graph(rng, int(rng.integers(6, 40)))
        op = make_operator(g, "shifted")
        dens = reconstruct_density(exact_moments(op, order=16), g.n)
        assert np.all(dens.rho >= 0)
        lo, hi = _split_masses(dens.grid, dens.rho)
        assert lo + hi == pytest.approx(1.0, abs=1e-12)


def test_density_quadrature_against_trapezoid_interior():
    # away from the endpoint singularities the closed-form cell quadrature
    # and a plain trapezoid rule must agree on the same samples
    rng = rng_for(6, "quad")
    g = random_graph(rng, 30)
    op = make_operator(g, "shifted")
    dens = reconstruct_density(exact_moments(op, order=16), g.n)
    lo, hi = _split_masses(dens.grid, dens.rho)
    interior = lo + hi
    # subtract the constant tails the closed form adds beyond the grid
    p0 = dens.rho[0] * np.pi * np.sqrt(1 - dens.grid[0] ** 2)
    p1 = dens.rho[-1] * np.pi * np.sqrt(1 - dens.grid[-1] ** 2)
    tail = (p0 * (np.arcsin(dens.grid[0]) + np.pi / 2) / np.pi
            + p1 * (np.pi / 2 - np.arcsin(dens.grid[-1])) / np.pi)
    trap = np.trapezoid(dens.rho, dens.grid)
    assert abs((interior - tail) - trap) < 5e-3


def test_density_degenerate_moments_raise():
    bad = MomentVector(values=np.array([-5.0, 0.0, 0.0]), probes=0)
    with pytest.raises(NumericalError):
        reconstruct_density(bad, 5)


def test_density_grid_args(k3):
    # every density is sampled on the one fixed grid inside the margins
    m = exact_moments(make_operator(k3, "shifted"), order=8)
    grid = reconstruct_density(m, 3).grid
    assert grid.size == DEFAULT_GRID
    assert (grid[0], grid[-1]) == (-1.0 + DEFAULT_MARGIN, 1.0 - DEFAULT_MARGIN)


def test_imbalance_symmetric_spectrum_is_zero(p2):
    op = make_operator(p2, "shifted")
    dens = reconstruct_density(exact_moments(op, order=20), 2)
    assert abs(spectral_imbalance(dens)) < 1e-12


def test_imbalance_triangle_matches_eigenvalue_split(k3):
    # spectrum {-1, 1/2, 1/2}: one eigenvalue below zero, two above
    op = make_operator(k3, "shifted")
    dens = reconstruct_density(exact_moments(op, order=20), 3)
    assert spectral_imbalance(dens) == pytest.approx(1 / 3, abs=0.01)


def test_imbalance_antisymmetry():
    # negating odd moments mirrors the spectrum; delta must flip sign exactly
    rng = rng_for(7, "anti")
    for trial in range(5):
        g = random_graph(rng, int(rng.integers(5, 30)))
        op = make_operator(g, "shifted")
        m = exact_moments(op, order=16)
        vals = m.values.copy()
        vals[1::2] *= -1.0
        mirrored = MomentVector(values=vals, probes=0)
        d1 = spectral_imbalance(reconstruct_density(m, g.n))
        d2 = spectral_imbalance(reconstruct_density(mirrored, g.n))
        assert abs(d1 + d2) < 1e-10


def test_calibrate_jacobi_sign_mapping():
    w = calibrate_jacobi(0.4, gamma=0.5)
    assert w.alpha == pytest.approx(-0.2) and w.beta == 0.0
    w = calibrate_jacobi(-0.4, gamma=0.5)
    assert w.alpha == 0.0 and w.beta == pytest.approx(-0.2)
    w = calibrate_jacobi(0.0)
    assert w.alpha == 0.0 and w.beta == 0.0


def test_calibrate_jacobi_bounds():
    with pytest.raises(ConfigError):
        calibrate_jacobi(0.5, gamma=0.0)
    with pytest.raises(ConfigError):
        calibrate_jacobi(0.5, gamma=1.0)
    with pytest.raises(ConfigError):
        calibrate_jacobi(1.5)
    w = calibrate_jacobi(1.0, gamma=0.5)
    assert w.alpha > -0.99


def test_calibrate_end_to_end_triangle(k3):
    op = make_operator(k3, "shifted")
    weights, density, moments = calibrate(op, exact=True, gamma=0.6)
    assert weights.delta == pytest.approx(1 / 3, abs=0.01)
    assert weights.alpha == pytest.approx(-0.6 * weights.delta, abs=1e-12)
    assert weights.beta == 0.0
    assert moments.probes == 0


def test_calibrate_stochastic_deterministic_per_seed(k3):
    op = make_operator(k3, "shifted")
    w1, _, m1 = calibrate(op, probes=16, seed=5)
    w2, _, m2 = calibrate(op, probes=16, seed=5)
    assert np.array_equal(m1.values, m2.values)
    assert w1.alpha == w2.alpha and w1.beta == w2.beta
    w3, _, m3 = calibrate(op, probes=16, seed=6)
    assert not np.array_equal(m1.values, m3.values)
