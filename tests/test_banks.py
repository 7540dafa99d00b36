import tracemalloc

import numpy as np
import pytest
from scipy.special import eval_chebyt, eval_jacobi, eval_legendre

from diffbank import (ConfigError, NumericalError, chebyshev_bank, jacobi_bank,
                      legendre_bank, make_operator, monomial_bank, reset_spmm_count,
                      spmm_call_count)
from diffbank.banks import (HopBank, bank_report, jacobi_coefficients,
                            jacobi_endpoint_values)
from diffbank.rng import rng_for

from conftest import (dense_operator, dense_shifted, oracle_slab, random_graph,
                      rel_fro, seeded_features)


def spectral_parts(g, x):
    lam, u = np.linalg.eigh(dense_shifted(g))
    return lam, u, u.T @ x.astype(np.float64)


def test_monomial_matches_matrix_powers():
    rng = rng_for(0, "mono")
    for kind in ("dad", "shifted", "da"):
        g = random_graph(rng, int(rng.integers(4, 30)))
        x = seeded_features(g, 5, 11)
        bank = monomial_bank(make_operator(g, kind), x, hops=6)
        dense = dense_operator(g, kind)
        for k in range(7):
            want = np.linalg.matrix_power(dense, k) @ x.astype(np.float64)
            assert rel_fro(bank.slabs[k], want) < 1e-5


def test_chebyshev_matches_eval_chebyt():
    rng = rng_for(1, "cheb")
    for trial in range(8):
        g = random_graph(rng, int(rng.integers(4, 40)))
        x = seeded_features(g, 4, trial)
        bank = chebyshev_bank(make_operator(g, "shifted"), x, hops=10)
        lam, u, proj = spectral_parts(g, x)
        for k in range(11):
            want = oracle_slab(lam, u, proj, lambda t: eval_chebyt(k, t))
            assert rel_fro(bank.slabs[k], want) < 1e-5


def test_legendre_matches_eval_legendre():
    rng = rng_for(2, "leg")
    for trial in range(8):
        g = random_graph(rng, int(rng.integers(4, 40)))
        x = seeded_features(g, 4, trial)
        bank = legendre_bank(make_operator(g, "shifted"), x, hops=10)
        lam, u, proj = spectral_parts(g, x)
        for k in range(11):
            want = oracle_slab(lam, u, proj, lambda t: eval_legendre(k, t))
            assert rel_fro(bank.slabs[k], want) < 1e-5


@pytest.mark.parametrize("alpha,beta", [(-0.4, 0.0), (0.0, -0.7), (0.3, 0.8),
                                        (-0.9, -0.9)])
def test_jacobi_matches_eval_jacobi(alpha, beta):
    rng = rng_for(3, "jac", alpha, beta)
    for trial in range(4):
        g = random_graph(rng, int(rng.integers(4, 30)))
        x = seeded_features(g, 3, trial)
        bank = jacobi_bank(make_operator(g, "shifted"), x, hops=8,
                           alpha=alpha, beta=beta)
        lam, u, proj = spectral_parts(g, x)
        for k in range(9):
            want = oracle_slab(lam, u, proj,
                               lambda t: eval_jacobi(k, alpha, beta, t))
            assert rel_fro(bank.slabs[k], want) < 1e-5


def test_legendre_is_jacobi_zero_zero(k3):
    x = seeded_features(k3, 2, 0)
    op = make_operator(k3, "shifted")
    a = legendre_bank(op, x, hops=5)
    b = jacobi_bank(op, x, hops=5, alpha=0.0, beta=0.0)
    assert np.array_equal(a.slabs, b.slabs)
    assert a.provenance["basis"] == "legendre"
    assert b.provenance["basis"] == "jacobi"


def test_chebyshev_alternates_on_single_edge(p2):
    # S on one edge squares to the identity, so T_k(S) X alternates X, SX
    x = np.array([[1.0], [0.0]], dtype=np.float32)
    bank = chebyshev_bank(make_operator(p2, "shifted"), x, hops=5)
    assert np.array_equal(bank.slabs[2], bank.slabs[0])
    assert np.array_equal(bank.slabs[4], bank.slabs[0])
    assert np.array_equal(bank.slabs[3], bank.slabs[1])
    assert np.allclose(bank.slabs[1], [[0.0], [-1.0]])


def test_recurrence_coefficients_reproduce_scalar_jacobi():
    rng = rng_for(4, "coeffs")
    t = np.linspace(-1.0, 1.0, 41)
    for trial in range(10):
        alpha = float(rng.uniform(-0.95, 1.5))
        beta = float(rng.uniform(-0.95, 1.5))
        rc = jacobi_coefficients(9, alpha, beta)
        p_prev = np.ones_like(t)
        p_cur = rc.a[0] * t + rc.b[0]
        assert np.max(np.abs(p_cur - eval_jacobi(1, alpha, beta, t))) < 1e-10
        for k in range(1, 9):
            p_next = (rc.a[k] * t + rc.b[k]) * p_cur - rc.c[k] * p_prev
            p_prev, p_cur = p_cur, p_next
            ref = eval_jacobi(k + 1, alpha, beta, t)
            scale = max(1.0, np.max(np.abs(ref)))
            assert np.max(np.abs(p_cur - ref)) / scale < 1e-10


def test_endpoint_values_match_jacobi_at_one():
    vals = jacobi_endpoint_values(8, -0.5, -0.5)
    ref = eval_jacobi(np.arange(9), -0.5, -0.5, 1.0)
    assert np.allclose(vals, ref, rtol=1e-12)


def test_hop_budget_errors(k3):
    op = make_operator(k3, "shifted")
    x = seeded_features(k3, 2, 0)
    with pytest.raises(ConfigError, match="exceeds the fixed hop budget of 15"):
        monomial_bank(op, x, hops=16)
    with pytest.raises(ConfigError):
        jacobi_bank(op, x, hops=-1, alpha=0.0, beta=0.0)
    bank = monomial_bank(op, x, hops=15)
    assert bank.slabs.shape[0] == 16


def test_feature_validation(k3):
    op = make_operator(k3, "shifted")
    with pytest.raises(ValueError):
        monomial_bank(op, np.ones((4, 2), dtype=np.float32), hops=2)
    with pytest.raises(ValueError):
        monomial_bank(op, np.ones(3, dtype=np.float32), hops=2)


def test_jacobi_weight_floor(k3):
    op = make_operator(k3, "shifted")
    x = seeded_features(k3, 2, 0)
    with pytest.raises(ConfigError):
        jacobi_bank(op, x, hops=2, alpha=-1.0, beta=0.0)
    with pytest.raises(ConfigError):
        jacobi_coefficients(2, 0.0, -1.5)


def test_dad_operator_rejected_for_polynomial_family(k3):
    x = seeded_features(k3, 2, 0)
    with pytest.raises(ValueError):
        jacobi_bank(make_operator(k3, "dad"), x, hops=2, alpha=0.0, beta=0.0)


def test_spmm_cost_is_exactly_hops():
    rng = rng_for(5, "cost")
    g = random_graph(rng, 20)
    x = seeded_features(g, 4, 0)
    op = make_operator(g, "shifted")
    for build in (lambda: monomial_bank(op, x, hops=7),
                  lambda: chebyshev_bank(op, x, hops=7),
                  lambda: legendre_bank(op, x, hops=7),
                  lambda: jacobi_bank(op, x, hops=7, alpha=-0.3, beta=0.0)):
        reset_spmm_count()
        build()
        assert spmm_call_count() == 7


def test_bank_dtype_and_shapes(k3):
    x = seeded_features(k3, 5, 1)
    bank = monomial_bank(make_operator(k3, "dad"), x, hops=3)
    assert bank.slabs.dtype == np.float32
    assert bank.slabs.shape == (4, 3, 5)
    assert bank.n == 3 and bank.width == 5 and bank.hops == 3


def test_report_orthogonal_columns_condition_one():
    slabs = np.zeros((3, 4, 2), dtype=np.float32)
    # channel 0: three orthogonal hop columns at different scales
    slabs[0, 0, 0] = 2.0
    slabs[1, 1, 0] = 0.5
    slabs[2, 2, 0] = 7.0
    # channel 1: hops 1 and 2 are parallel
    slabs[0, 0, 1] = 1.0
    slabs[1, 1, 1] = 1.0
    slabs[2, 1, 1] = 3.0
    rep = bank_report(HopBank(hops=2, slabs=slabs, provenance={}))
    assert rep.cond[0] == pytest.approx(1.0, abs=1e-10)
    assert rep.mean_abs_cos[0] == pytest.approx(0.0, abs=1e-12)
    assert rep.cond[1] == np.inf
    assert rep.zero_norm_channels.size == 0
    assert rep.summary["channels"] == 2


def test_report_flags_zero_norm_channels():
    slabs = np.zeros((2, 3, 2), dtype=np.float32)
    slabs[:, :, 0] = 1.0  # healthy channel, but parallel hops
    rep = bank_report(HopBank(hops=1, slabs=slabs, provenance={}))
    assert list(rep.zero_norm_channels) == [1]
    assert rep.summary["zero_norm_channels"] == 1
    assert np.isnan(rep.mean_abs_cos[1])


def test_report_makes_no_float64_copy_of_the_bank():
    rng = np.random.default_rng(5)
    slabs = rng.standard_normal((5, 20_000, 16)).astype(np.float32)
    tracemalloc.start()
    try:
        rep = bank_report(HopBank(hops=4, slabs=slabs, provenance={}))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < slabs.nbytes / 8
    cols = slabs.astype(np.float64).transpose(2, 1, 0)
    assert np.allclose(rep.gram, np.einsum("dnk,dnl->dkl", cols, cols),
                       rtol=1e-12, atol=0.0)


def test_orthogonal_family_better_conditioned_than_powers():
    # repeated powers of a ring-with-chords operator pile onto the dominant
    # eigenvector; degree-orthogonal slabs keep the hop columns spread out
    rng = rng_for(6, "cond")
    g = random_graph(rng, 16, kind="regular")
    x = seeded_features(g, 6, 3)
    mono = bank_report(monomial_bank(make_operator(g, "dad"), x, hops=8))
    leg = bank_report(legendre_bank(make_operator(g, "shifted"), x, hops=8))
    assert leg.summary["mean_cond"] < mono.summary["mean_cond"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_slabs_raise_numerical_error(p2):
    # [1, -1] is the p2 eigenvector at Laplacian eigenvalue 2, shifted 1
    flip = np.array([[1.0], [-1.0]])
    lap, shifted = make_operator(p2, "lap"), make_operator(p2, "shifted")
    with pytest.raises(NumericalError, match="monomial bank slab 2 is not finite"):
        monomial_bank(lap, (1e38 * flip).astype(np.float32), hops=2)
    # extreme weights: P_k^(60,0)(1) = C(k+60, k) reaches 2e15 at k = 15
    with pytest.raises(NumericalError, match="jacobi bank slab"):
        jacobi_bank(shifted, (1e30 * flip).astype(np.float32), 15, 60.0, 0.0)
    # float64 input past the float32 range: slab 1 is S x = x
    with pytest.raises(NumericalError, match="legendre bank slab 1 "):
        legendre_bank(shifted, 1e39 * flip, hops=3)
    # at unit scale the extreme-weight bank stays finite
    assert np.isfinite(jacobi_bank(shifted, flip.astype(np.float32), 15,
                                   60.0, 0.0).slabs).all()
