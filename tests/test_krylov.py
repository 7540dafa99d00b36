import numpy as np
import pytest

from diffbank import (ConfigError, NumericalError, apply_spectral_response,
                      bank_report, batched_lanczos, build_graph, make_operator,
                      reset_spmm_count, ritz_bank, ritz_bank_as_hopbank,
                      spmm_call_count, tridiag_eig)
from diffbank.krylov import MAX_LANCZOS_STEPS, ritz_components, ritz_triples
from diffbank.rng import rng_for

from conftest import dense_shifted, random_graph, seeded_features


def path_graph(n):
    return build_graph([(i, i + 1) for i in range(n - 1)], n)


def test_tridiag_eig_hand_case():
    vals, vecs = tridiag_eig([0.0, 0.0], [1.0])
    assert np.allclose(vals, [-1.0, 1.0], atol=1e-14)
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(vecs[:, 0], [s, -s], atol=1e-14)
    assert np.allclose(vecs[:, 1], [s, s], atol=1e-14)


def test_tridiag_eig_matches_dense_solver():
    rng = rng_for(0, "ql")
    for trial in range(20):
        n = int(rng.integers(1, 21))
        d = rng.standard_normal(n)
        e = rng.standard_normal(max(n - 1, 0))
        t = np.diag(d)
        if n > 1:
            t += np.diag(e, 1) + np.diag(e, -1)
        vals, vecs = tridiag_eig(d, e)
        ref = np.linalg.eigvalsh(t)
        assert np.max(np.abs(vals - ref)) < 1e-12 * max(1.0, np.abs(ref).max())
        assert np.max(np.abs(t @ vecs - vecs * vals)) < 1e-11
        assert np.max(np.abs(vecs.T @ vecs - np.eye(n))) < 1e-12
        assert np.all(np.diff(vals) >= 0)


def test_tridiag_eig_sign_convention():
    rng = rng_for(1, "sign")
    d = rng.standard_normal(7)
    e = rng.standard_normal(6)
    _, vecs = tridiag_eig(d, e)
    for j in range(7):
        nz = np.nonzero(np.abs(vecs[:, j]) > 1e-12)[0]
        assert vecs[nz[0], j] > 0.0


def test_tridiag_eig_errors():
    with pytest.raises(ValueError):
        tridiag_eig([], [])
    with pytest.raises(ConfigError):
        tridiag_eig(np.zeros(65), np.zeros(64))
    with pytest.raises(ValueError):
        tridiag_eig([1.0, 2.0], [0.1, 0.2])


def test_full_order_ritz_values_match_dense_spectrum():
    rng = rng_for(2, "exact")
    for n in range(2, 16):
        g = path_graph(n)
        x = seeded_features(g, 3, n)
        fact = batched_lanczos(make_operator(g, "shifted"), x, order=n)
        lam = np.linalg.eigvalsh(dense_shifted(g))
        for cf in fact.channels:
            rc = ritz_components(cf)
            for v in rc.values:
                assert np.min(np.abs(lam - v)) < 1e-8
            if not cf.breakdown and cf.steps == n:
                assert np.max(np.abs(np.sort(rc.values) - lam)) < 1e-8


def test_basis_orthonormal_with_full_reorth():
    rng = rng_for(3, "orth")
    for trial in range(6):
        g = random_graph(rng, int(rng.integers(4, 16)))
        x = seeded_features(g, 4, trial)
        order = min(g.n, MAX_LANCZOS_STEPS)
        fact = batched_lanczos(make_operator(g, "shifted"), x, order=order)
        for cf in fact.channels:
            qtq = cf.q.T @ cf.q
            assert np.max(np.abs(qtq - np.eye(cf.q.shape[1]))) < 1e-8


def test_components_sum_to_input():
    # sum_i z_i = |x| Q U U^T e_1 = |x| q_1 = x, independent of basis drift
    rng = rng_for(4, "recon", "full")
    g = random_graph(rng, 12)
    x = seeded_features(g, 5, 9)
    fact = batched_lanczos(make_operator(g, "shifted"), x, order=6)
    for cf in fact.channels:
        rc = ritz_components(cf)
        total = rc.components.sum(axis=1)
        ref = x[:, cf.channel].astype(np.float64)
        assert np.linalg.norm(total - ref) / np.linalg.norm(ref) < 1e-6


def test_components_pairwise_orthogonal():
    rng = rng_for(5, "pair")
    g = random_graph(rng, 14)
    x = seeded_features(g, 4, 2)
    fact = batched_lanczos(make_operator(g, "shifted"), x, order=10)
    for cf in fact.channels:
        z = ritz_components(cf).components
        norms = np.linalg.norm(z, axis=0)
        cosg = (z.T @ z) / np.outer(norms, norms)
        off = ~np.eye(z.shape[1], dtype=bool)
        assert np.max(np.abs(cosg[off])) < 1e-6


def test_hopbank_layout_and_conditioning():
    rng = rng_for(6, "layout")
    g = random_graph(rng, 13)
    x = seeded_features(g, 3, 4)
    fact = batched_lanczos(make_operator(g, "shifted"), x, order=7)
    rb = ritz_bank(fact, n=g.n)
    bank = ritz_bank_as_hopbank(rb, hops=6)
    assert bank.slabs.shape == (7, 13, 3)
    for rc in rb.channels:
        take = min(7, rc.components.shape[1])
        for k in range(take):
            assert np.array_equal(bank.slabs[k, :, rc.channel],
                                  rc.components[:, k].astype(np.float32))
    rep = bank_report(bank)
    live = np.setdiff1d(np.arange(3), rep.zero_norm_channels)
    assert np.all(np.abs(rep.cond[live] - 1.0) < 1e-5)
    assert bank.provenance["basis"] == "krylov"


def test_hopbank_raw_hop0_override():
    rng = rng_for(7, "hop0")
    g = random_graph(rng, 10)
    x = seeded_features(g, 4, 5)
    fact = batched_lanczos(make_operator(g, "shifted"), x, order=5)
    rb = ritz_bank(fact, n=g.n)
    bank = ritz_bank_as_hopbank(rb, hops=4, raw_hop0=x)
    assert np.array_equal(bank.slabs[0], x.astype(np.float32))
    assert bank.provenance["raw_hop0"] is True
    plain = ritz_bank_as_hopbank(rb, hops=4)
    assert np.array_equal(bank.slabs[1:], plain.slabs[1:])


def test_eigenvector_start_breaks_down_after_one_step(p2):
    x = np.array([[1.0], [1.0]], dtype=np.float32)
    reset_spmm_count()
    fact = batched_lanczos(make_operator(p2, "shifted"), x, order=2)
    assert spmm_call_count() == 1
    cf = fact.channels[0]
    assert cf.breakdown and cf.steps == 1
    rc = ritz_components(cf)
    assert rc.values[0] == pytest.approx(-1.0, abs=1e-12)
    rb = ritz_bank(fact, n=2)
    bank = ritz_bank_as_hopbank(rb, hops=1)
    assert np.allclose(bank.slabs[0, :, 0], [1.0, 1.0], atol=1e-7)
    assert np.all(bank.slabs[1] == 0.0)


def test_zero_channels_are_skipped():
    rng = rng_for(8, "zero")
    g = random_graph(rng, 8)
    x = seeded_features(g, 3, 6)
    x[:, 1] = 0.0
    fact = batched_lanczos(make_operator(g, "shifted"), x, order=4)
    assert list(fact.skipped) == [1]
    assert fact.width == 3
    assert sorted(cf.channel for cf in fact.channels) == [0, 2]
    bank = ritz_bank_as_hopbank(ritz_bank(fact, n=g.n), hops=3)
    assert np.all(bank.slabs[:, :, 1] == 0.0)


def test_spectral_response_identity_reproduces_input():
    rng = rng_for(9, "resp")
    g = random_graph(rng, 12)
    x = seeded_features(g, 4, 7)
    fact = batched_lanczos(make_operator(g, "shifted"), x, order=8)
    rb = ritz_bank(fact, n=g.n)
    out = apply_spectral_response(rb, lambda lam: np.ones_like(lam))
    assert np.max(np.abs(out - x)) < 1e-5
    with pytest.raises(ValueError):
        apply_spectral_response(rb, lambda lam: lam[:-1])


def test_spmm_cost_is_exactly_order():
    rng = rng_for(10, "cost")
    g = random_graph(rng, 20)
    x = seeded_features(g, 5, 8)
    reset_spmm_count()
    batched_lanczos(make_operator(g, "shifted"), x, order=9)
    assert spmm_call_count() == 9


def test_ritz_triples_flat_records():
    rng = rng_for(11, "triples")
    g = random_graph(rng, 9)
    x = seeded_features(g, 2, 3)
    rb = ritz_bank(batched_lanczos(make_operator(g, "shifted"), x, order=4), n=g.n)
    rows = ritz_triples(rb)
    assert {r["channel"] for r in rows} <= {0, 1}
    total = sum(len(rc.values) for rc in rb.channels)
    assert len(rows) == total
    assert all(set(r) == {"channel", "value", "weight"} for r in rows)


def test_argument_validation(k3):
    x = seeded_features(k3, 2, 0)
    with pytest.raises(ValueError):
        batched_lanczos(make_operator(k3, "dad"), x, order=2)
    op = make_operator(k3, "shifted")
    with pytest.raises(ConfigError):
        batched_lanczos(op, x, order=0)
    with pytest.raises(ConfigError, match="exceeds the fixed hop budget of 15"):
        batched_lanczos(op, x, order=16)
    for mode in ("selective", "none"):
        with pytest.raises(ConfigError, match="reorthogonalization"):
            batched_lanczos(op, x, order=2, reorth=mode)
    with pytest.raises(ValueError):
        batched_lanczos(op, x[:, 0], order=2)
    fact = batched_lanczos(op, x, order=3)
    with pytest.raises(ConfigError):
        ritz_bank_as_hopbank(ritz_bank(fact, n=3), hops=3)
    with pytest.raises(ValueError):
        ritz_bank_as_hopbank(ritz_bank(fact, n=3), hops=2,
                             raw_hop0=np.ones((4, 2), dtype=np.float32))


def test_all_zero_features_cannot_infer_node_count(k3):
    fact = batched_lanczos(make_operator(k3, "shifted"),
                           np.zeros((3, 2), dtype=np.float32), order=2)
    with pytest.raises(ValueError):
        ritz_bank(fact)
    rb = ritz_bank(fact, n=3)
    assert rb.width == 2 and len(rb.channels) == 0


def reference_lanczos(s, col, order):
    """One column at a time, the plain loop: dense products, two full
    reorthogonalization passes, stop when the residual collapses."""
    x_norm = np.linalg.norm(col)
    q, alphas, betas = [col / x_norm], [], []
    for j in range(order):
        r = s @ q[-1]
        alphas.append(q[-1] @ r)
        if j == order - 1:
            break
        qmat = np.column_stack(q)
        for _ in range(2):
            r = r - qmat @ (qmat.T @ r)
        if np.linalg.norm(r) < 1e-10 * x_norm:
            break
        betas.append(np.linalg.norm(r))
        q.append(r / betas[-1])
    return np.column_stack(q), np.array(alphas), np.array(betas)


def test_mixed_batch_matches_single_column_runs():
    rng = rng_for(12, "mixed")
    g = random_graph(rng, 14, kind="er")
    op = make_operator(g, "shifted")
    _, u = np.linalg.eigh(dense_shifted(g))
    gen = seeded_features(g, 2, 13).astype(np.float64)
    # generic, eigenvector (breaks down after one step), zero, generic
    x = np.column_stack([gen[:, 0], u[:, 3], np.zeros(g.n), gen[:, 1]])
    order = 5
    reset_spmm_count()
    fact = batched_lanczos(op, x, order)
    assert spmm_call_count() == order
    assert list(fact.skipped) == [2] and list(fact.ids) == [0, 1, 3]
    assert list(fact.steps) == [order, 1, order]
    assert [cf.breakdown for cf in fact.channels] == [False, True, False]
    rb = ritz_bank(fact)
    bank = ritz_bank_as_hopbank(rb, hops=order - 1)
    assert np.all(bank.slabs[1:, :, 1] == 0.0)
    assert np.all(bank.slabs[:, :, 2] == 0.0)
    for cf, rc in zip(fact.channels, rb.channels):
        one = batched_lanczos(op, x[:, [cf.channel]], order)
        (alone,) = one.channels
        assert alone.steps == cf.steps
        for a, b in ((alone.q, cf.q), (alone.alphas, cf.alphas),
                     (alone.betas, cf.betas)):
            assert np.max(np.abs(a - b), initial=0.0) < 1e-12
        q, alphas, betas = reference_lanczos(dense_shifted(g), x[:, cf.channel], order)
        for a, b in ((q, cf.q), (alphas, cf.alphas), (betas, cf.betas)):
            assert np.max(np.abs(a - b), initial=0.0) < 1e-12
        (rc_alone,) = ritz_bank(one).channels
        assert np.max(np.abs(rc_alone.components - rc.components)) < 1e-12
        assert np.max(np.abs(rc_alone.values - rc.values)) < 1e-12


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_krylov_slabs_raise_numerical_error():
    rng = rng_for(13, "overflow")
    g = random_graph(rng, 10)
    x = 1e39 * seeded_features(g, 2, 4).astype(np.float64)
    rb = ritz_bank(batched_lanczos(make_operator(g, "shifted"), x, order=3))
    with pytest.raises(NumericalError, match="krylov bank slab 0 is not finite"):
        ritz_bank_as_hopbank(rb, hops=2)
