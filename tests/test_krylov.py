import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from diffbank import (ConfigError, NumericalError, batched_lanczos, make_operator,
                      reset_spmm_count, spmm_call_count)
from diffbank.banks import HopBank, bank_report
from diffbank.graph import build_graph
from diffbank.krylov import (MAX_LANCZOS_STEPS, ritz_bank, ritz_bank_as_hopbank,
                             ritz_components, tridiag_eig)
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
    with pytest.raises(ValueError):
        tridiag_eig([1.0, 2.0], [0.1, 0.2])
    with pytest.raises(NumericalError, match="not finite"):
        tridiag_eig([0.0, np.nan], [1.0])


def test_tridiag_eig_lapack_failure_is_a_numerical_error(monkeypatch):
    def fails(*args, **kwargs):
        raise scipy.linalg.LinAlgError("eigenvalue 2 did not converge")

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", fails)
    with pytest.raises(NumericalError, match="did not converge"):
        tridiag_eig([0.0, 0.0], [1.0])


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
    bank = ritz_bank_as_hopbank(fact, hops=6, raw_hop0=x)
    assert bank.slabs.shape == (7, 13, 3)
    for rc in map(ritz_components, fact.channels):
        take = min(7, rc.components.shape[1])
        for k in range(1, take):
            assert np.array_equal(bank.slabs[k, :, rc.channel],
                                  rc.components[:, k].astype(np.float32))
    # slab 0 is the raw features; the components after it are orthogonal
    rep = bank_report(HopBank(hops=5, slabs=bank.slabs[1:], provenance={}))
    live = np.setdiff1d(np.arange(3), rep.zero_norm_channels)
    assert np.all(np.abs(rep.cond[live] - 1.0) < 1e-5)
    assert bank.provenance["basis"] == "krylov"


def test_hopbank_raw_hop0_override():
    rng = rng_for(7, "hop0")
    g = random_graph(rng, 10)
    x = seeded_features(g, 4, 5)
    fact = batched_lanczos(make_operator(g, "shifted"), x, order=5)
    bank = ritz_bank_as_hopbank(fact, hops=4, raw_hop0=x)
    assert np.array_equal(bank.slabs[0], x.astype(np.float32))
    # the components do not depend on what slab 0 holds
    other = ritz_bank_as_hopbank(fact, hops=4, raw_hop0=np.zeros_like(x))
    assert np.all(other.slabs[0] == 0.0)
    assert np.array_equal(bank.slabs[1:], other.slabs[1:])


def test_eigenvector_start_breaks_down_after_one_step(p2):
    x = np.array([[1.0], [1.0]], dtype=np.float32)
    reset_spmm_count()
    fact = batched_lanczos(make_operator(p2, "shifted"), x, order=2)
    assert spmm_call_count() == 1
    cf = fact.channels[0]
    assert cf.breakdown and cf.steps == 1
    rc = ritz_components(cf)
    assert rc.values[0] == pytest.approx(-1.0, abs=1e-12)
    bank = ritz_bank_as_hopbank(fact, hops=1, raw_hop0=x)
    assert np.array_equal(bank.slabs[0], x)
    assert np.allclose(rc.components[:, 0], [1.0, 1.0], atol=1e-7)
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
    bank = ritz_bank_as_hopbank(fact, hops=3, raw_hop0=x)
    assert np.all(bank.slabs[:, :, 1] == 0.0)


def test_spmm_cost_is_exactly_order():
    rng = rng_for(10, "cost")
    g = random_graph(rng, 20)
    x = seeded_features(g, 5, 8)
    reset_spmm_count()
    batched_lanczos(make_operator(g, "shifted"), x, order=9)
    assert spmm_call_count() == 9


def test_argument_validation(k3):
    x = seeded_features(k3, 2, 0)
    with pytest.raises(ValueError):
        batched_lanczos(make_operator(k3, "dad"), x, order=2)
    op = make_operator(k3, "shifted")
    with pytest.raises(ConfigError):
        batched_lanczos(op, x, order=0)
    with pytest.raises(ConfigError, match="exceeds the fixed step budget of 15"):
        batched_lanczos(op, x, order=16)
    for mode in ("selective", "none"):
        with pytest.raises(ConfigError, match="reorthogonalization"):
            batched_lanczos(op, x, order=2, reorth=mode)
    with pytest.raises(ValueError):
        batched_lanczos(op, x[:, 0], order=2)
    fact = batched_lanczos(op, x, order=3)
    with pytest.raises(ConfigError):
        ritz_bank_as_hopbank(fact, hops=3, raw_hop0=x)
    with pytest.raises(ValueError):
        ritz_bank_as_hopbank(fact, hops=2,
                             raw_hop0=np.ones((4, 2), dtype=np.float32))


def test_all_zero_features_cannot_infer_node_count(k3):
    fact = batched_lanczos(make_operator(k3, "shifted"),
                           np.zeros((3, 2), dtype=np.float32), order=2)
    # the node count is the operator's, so no feature column is needed
    assert fact.width == 2 and ritz_bank(fact).size == 0


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
    bank = ritz_bank_as_hopbank(fact, hops=order - 1, raw_hop0=x)
    assert np.all(bank.slabs[1:, :, 1] == 0.0)
    assert np.all(bank.slabs[:, :, 2] == 0.0)
    for cf, rc in zip(fact.channels, map(ritz_components, fact.channels)):
        one = batched_lanczos(op, x[:, [cf.channel]], order)
        (alone,) = one.channels
        assert alone.steps == cf.steps
        for a, b in ((alone.q, cf.q), (alone.alphas, cf.alphas),
                     (alone.betas, cf.betas)):
            assert np.max(np.abs(a - b), initial=0.0) < 1e-12
        q, alphas, betas = reference_lanczos(dense_shifted(g), x[:, cf.channel], order)
        for a, b in ((q, cf.q), (alphas, cf.alphas), (betas, cf.betas)):
            assert np.max(np.abs(a - b), initial=0.0) < 1e-12
        rc_alone = ritz_components(alone)
        assert np.max(np.abs(rc_alone.components - rc.components)) < 1e-12
        assert np.max(np.abs(rc_alone.values - rc.values)) < 1e-12


@pytest.mark.parametrize("scale", [1e12, 1e-12])
def test_breakdown_does_not_depend_on_the_input_scale(scale):
    rng = rng_for(14, "scale")
    g = random_graph(rng, 10)
    op = make_operator(g, "shifted")
    _, u = np.linalg.eigh(dense_shifted(g))
    # a generic column runs all steps, an eigenvector breaks down after one
    x = np.column_stack([seeded_features(g, 1, 5)[:, 0], u[:, 3]])
    order = 6
    assert list(batched_lanczos(op, x, order).steps) == [order, 1]
    assert list(batched_lanczos(op, scale * x, order).steps) == [order, 1]


def test_a_breakdown_costs_no_copy_of_the_basis():
    # on a ring every node has degree 2, so a constant column is an
    # eigenvector and breaks down after one step; the other columns go on
    n, order = 20_000, 8
    ring = build_graph(np.column_stack([np.arange(n), (np.arange(n) + 1) % n]), n)
    op = make_operator(ring, "shifted")
    x = rng_for(15, "ring").standard_normal((n, 4))
    x[:, 0] = 1.0
    batched_lanczos(op, x, order)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fact = batched_lanczos(op, x, order)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert list(fact.steps) == [1, order, order, order]
    # the basis tensor, plus less than half of one (n, c) block of its rows
    assert peak < fact.q.nbytes + fact.q[0].nbytes // 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_krylov_slabs_raise_numerical_error():
    rng = rng_for(13, "overflow")
    g = random_graph(rng, 10)
    x = 1e39 * seeded_features(g, 2, 4).astype(np.float64)
    fact = batched_lanczos(make_operator(g, "shifted"), x, order=3)
    with pytest.raises(NumericalError, match="krylov bank slab 1 is not finite"):
        ritz_bank_as_hopbank(fact, hops=2, raw_hop0=x)


def whole_array_lanczos(op, x, order):
    """Lanczos as whole-array passes, one per operation, on the same tensor
    layout: the form the row-chunked passes must match bit for bit when a
    build is too small to split."""
    norms = np.linalg.norm(x.astype(np.float64), axis=0)
    ids = np.nonzero(norms > 0.0)[0]
    norms = norms[ids]
    c = ids.size
    q = np.zeros((order, op.n, c))
    alphas = np.zeros((order, c))
    betas = np.zeros((order - 1, c))
    steps = np.zeros(c, dtype=np.int64)
    np.divide(x[:, ids], norms, out=q[0])
    live = np.arange(c)
    for j in range(order):
        if live.size == 0:
            break
        cols = slice(None) if live.size == c else live
        qj = q[j][:, cols]
        w = op._matrix @ qj
        a = np.einsum("nc,nc->c", qj, w)
        alphas[j, cols] = a
        steps[cols] += 1
        if j == order - 1:
            break
        r = w - a * qj
        if j:
            r -= betas[j - 1, cols] * q[j - 1][:, cols]
        basis = q[:j + 1][:, :, cols]
        for _ in range(2):
            r -= np.einsum("knc,kc->nc", basis, np.einsum("knc,nc->kc", basis, r))
        b = np.linalg.norm(r, axis=0)
        keep = b >= 1e-10
        betas[j, cols] = np.where(keep, b, 0.0)
        q[j + 1][:, cols] = r / np.where(keep, b, np.inf)
        live = live[keep]
    return q, alphas, betas, steps


def test_unsplit_builds_match_the_whole_array_passes_bit_for_bit():
    rng = rng_for(15, "whole")
    g = random_graph(rng, 40, kind="sbm")
    op = make_operator(g, "shifted")
    _, u = np.linalg.eigh(dense_shifted(g))
    gen = seeded_features(g, 3, 6)
    # generic columns, an eigenvector that breaks down early, a zero column
    x = np.column_stack([gen[:, 0], u[:, 5], np.zeros(g.n), gen[:, 1:]])
    order = 7
    fact = batched_lanczos(op, x, order)
    want = whole_array_lanczos(op, x, order)
    assert list(fact.steps) == [order, 1, order, order]
    for got, ref in zip((fact.q, fact.alphas, fact.betas, fact.steps), want):
        assert np.array_equal(got.view(np.uint8), ref.view(np.uint8))
    coeffs = ritz_bank(fact)
    bank = ritz_bank_as_hopbank(fact, order - 1, raw_hop0=x)
    for k in range(1, order):
        slab = np.zeros((g.n, x.shape[1]), dtype=np.float32)
        slab[:, fact.ids] = np.einsum("jnc,jc->nc", want[0], coeffs[k])
        assert np.array_equal(bank.slabs[k].view(np.uint32), slab.view(np.uint32))
