"""The row-blocked propagation kernel: results never depend on its threads.

Two blocks are forced by setting ``graph._CORES`` to 2 and the work floor
to 0 before the operator is made; ``_CORES = 1`` gives the one-block path.
A small ``graph._CHUNK_ROWS`` splits the row-chunked passes into several
chunks on the same small graphs.
"""

import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from diffbank import NumericalError, graph, validate_config
from diffbank.banks import legendre_bank, monomial_bank
from diffbank.calibration import estimate_moments
from diffbank.experiment import build_bank
from diffbank.graph import build_graph, make_operator, row_chunks, spmm, spmm_call_count
from diffbank.krylov import batched_lanczos, ritz_bank, ritz_bank_as_hopbank

from conftest import dense_shifted, random_graph, seeded_features
from diffbank.rng import rng_for


def _kernel(monkeypatch, cores):
    monkeypatch.setattr(graph, "_CORES", cores)
    monkeypatch.setattr(graph, "_WORK_FLOOR", 0)
    monkeypatch.delenv("DIFFBANK_THREADS", raising=False)


@pytest.fixture(scope="module")
def soup():
    g = random_graph(rng_for(11, "kernel"), 90, kind="sbm")
    return g, seeded_features(g, 5, seed=4).astype(np.float32)


BASES = {
    "monomial": {"basis": "monomial", "operator": "dad"},
    "legendre": {"basis": "legendre"},
    "chebyshev": {"basis": "chebyshev"},
    "jacobi": {"basis": "jacobi", "jacobi": {"alpha": 0.3, "beta": -0.4}},
    "auto": {"basis": "auto", "calibration": {"order": 8, "probes": 6}},
    "krylov": {"basis": "krylov"},
}


@pytest.mark.parametrize("basis", sorted(BASES))
def test_banks_do_not_depend_on_kernel_threads(basis, soup, monkeypatch):
    g, x = soup
    cfg = validate_config({"dataset": {"synthetic": {"n": 90}}, "hops": 5,
                           **BASES[basis]})
    runs = []
    for cores in (1, 2):
        _kernel(monkeypatch, cores)
        assert len(make_operator(g, "shifted")._cuts) == cores + 1
        before = spmm_call_count()
        bank, details = build_bank(cfg, g, x)
        runs.append((bank, details, spmm_call_count() - before))
    (one, d1, n1), (two, d2, n2) = runs
    assert np.array_equal(one.slabs.view(np.uint32), two.slabs.view(np.uint32))
    assert one.provenance == two.provenance
    assert d1.get("calibration") == d2.get("calibration")
    assert n1 == n2 == d1["spmm"] == d2["spmm"]


def test_moments_do_not_depend_on_kernel_threads(soup, monkeypatch):
    g, _ = soup
    vals = []
    for cores in (1, 2):
        _kernel(monkeypatch, cores)
        op = make_operator(g, "shifted")
        for kind in ("gaussian", "rademacher"):
            before = spmm_call_count()
            vals.append(estimate_moments(op, order=9, probes=7, seed=2,
                                         probe_kind=kind).values)
            assert spmm_call_count() - before == 9
    assert np.array_equal(vals[0], vals[2]) and np.array_equal(vals[1], vals[3])


def test_blocked_products_are_scipy_bit_for_bit(soup, monkeypatch):
    g, x = soup
    _kernel(monkeypatch, 2)
    op = make_operator(g, "lap")
    want = op._matrix @ x.astype(np.float64)
    assert np.array_equal(spmm(op, x.astype(np.float64)), want)
    assert np.array_equal(spmm(op, x), want.astype(np.float32))
    assert np.array_equal(spmm(op, x[:, 2].astype(np.float64)), want[:, 2])
    assert np.array_equal(spmm(op, np.asfortranarray(x, dtype=np.float64)), want)
    out = np.empty(want.shape)
    assert spmm(op, x.astype(np.float64), out=out) is out
    assert np.array_equal(out, want)


def test_out_must_be_a_separate_float64_block(soup):
    g, x = soup
    op = make_operator(g, "shifted")
    x64 = x.astype(np.float64)
    for bad in (np.empty(x.shape, np.float32), np.empty((g.n, 2)),
                np.empty(x.shape, order="F"), x64):
        with pytest.raises(ValueError):
            spmm(op, x64, out=bad)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_slab_in_a_worker_block_raises_numerical_error(monkeypatch):
    # two separate paths, so the second block's rows never reach the first's
    _kernel(monkeypatch, 2)
    half = np.array([[i, i + 1] for i in range(9)])
    g = build_graph(np.concatenate([half, half + 10]), 20)
    op = make_operator(g, "dad")
    assert op._cuts == (0, 10, 20)
    x = np.zeros((20, 3))
    x[10:] = 1e300  # overflows float32 in the pool thread's block only
    with pytest.raises(NumericalError, match="monomial bank slab 1"):
        monomial_bank(op, x, 2)


def test_an_error_in_one_block_waits_for_the_others(soup, monkeypatch):
    g, x = soup
    _kernel(monkeypatch, 2)
    op = make_operator(g, "shifted")
    done = []

    def then(lo, hi):
        if lo == 0:
            raise NumericalError("first block")
        time.sleep(0.2)
        done.append(lo)

    with pytest.raises(NumericalError, match="first block"):
        spmm(op, x.astype(np.float64), out=np.empty(x.shape), then=then)
    # no block may still write the caller's buffers once spmm has returned
    assert done == [op._cuts[1]]


def _krylov_slabs(op, x, hops):
    return ritz_bank_as_hopbank(ritz_bank(batched_lanczos(op, x, hops + 1)), hops,
                                raw_hop0=x).slabs


def test_callers_on_many_threads_share_the_pool(soup, monkeypatch):
    # more callers than cores, each splitting its products into 3 blocks and
    # its row-chunked passes into 6 chunks
    g, x = soup
    _kernel(monkeypatch, 3)
    monkeypatch.setattr(graph, "_CHUNK_ROWS", 16)
    op = make_operator(g, "shifted")

    def banks(_):
        return legendre_bank(op, x, 6).slabs, _krylov_slabs(op, x, 6)

    want = banks(None)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=6) as callers:
            got = list(callers.map(banks, range(24), timeout=60))
    finally:
        sys.setswitchinterval(switch)
    assert all(np.array_equal(b.view(np.uint32), w.view(np.uint32))
               for pair in got for b, w in zip(pair, want))


def test_seed_threads_take_the_kernel_threads(soup, monkeypatch):
    g, _ = soup
    monkeypatch.setattr(graph, "_CORES", 2)
    monkeypatch.setenv("DIFFBANK_THREADS", "2")
    assert make_operator(g, "shifted")._cuts == (0, g.n)
    monkeypatch.setenv("DIFFBANK_THREADS", "1")
    assert len(make_operator(g, "shifted")._cuts) == 3


def test_small_products_run_as_one_block(soup, monkeypatch):
    g, x = soup
    monkeypatch.setattr(graph, "_CORES", 2)
    monkeypatch.delenv("DIFFBANK_THREADS", raising=False)
    op = make_operator(g, "shifted")
    assert len(op._cuts) == 3 and op._matrix.nnz * x.shape[1] < graph._WORK_FLOOR
    calls = []

    def then(lo, hi):
        calls.append((lo, hi))

    spmm(op, x.astype(np.float64), out=np.empty(x.shape), then=then)
    assert calls == [(0, g.n)]


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint8)


def test_row_chunks_have_fixed_bounds_and_order(soup, monkeypatch):
    g, _ = soup
    monkeypatch.setattr(graph, "_CHUNK_ROWS", 16)
    for cores in (1, 2, 3):
        _kernel(monkeypatch, cores)
        op = make_operator(g, "shifted")
        assert row_chunks(op, 1, lambda lo, hi: (lo, hi)) == [
            (lo, min(lo + 16, g.n)) for lo in range(0, g.n, 16)]
    monkeypatch.setattr(graph, "_WORK_FLOOR", op._matrix.nnz * 4)
    assert row_chunks(op, 3, lambda lo, hi: (lo, hi)) == [(0, g.n)]
    assert len(row_chunks(op, 4, lambda lo, hi: (lo, hi))) == -(-g.n // 16)


def test_chunked_krylov_and_moments_do_not_depend_on_kernel_threads(soup, monkeypatch):
    g, x = soup
    _, u = np.linalg.eigh(dense_shifted(g))
    # the eigenvector column breaks down after one step, the zero one is skipped
    x = np.column_stack([x, u[:, 7], np.zeros(g.n)])
    monkeypatch.setattr(graph, "_CHUNK_ROWS", 16)
    runs = []
    for cores in (1, 2):
        _kernel(monkeypatch, cores)
        op = make_operator(g, "shifted")
        fact = batched_lanczos(op, x, 8)
        bank = ritz_bank_as_hopbank(ritz_bank(fact), 6, raw_hop0=x)
        moments = estimate_moments(op, order=9, probes=7, seed=2).values
        runs.append((fact.q, fact.alphas, fact.betas, fact.steps, bank.slabs, moments))
    assert list(runs[0][3]) == [8] * 5 + [1]
    for a, b in zip(*runs):
        assert np.array_equal(_bits(a), _bits(b))


def test_chunked_ritz_slabs_match_the_one_chunk_path(soup, monkeypatch):
    g, x = soup
    _kernel(monkeypatch, 2)
    rb = ritz_bank(batched_lanczos(make_operator(g, "shifted"), x, 7))
    monkeypatch.setattr(graph, "_CHUNK_ROWS", 16)
    chunked = ritz_bank_as_hopbank(rb, 6).slabs
    monkeypatch.setattr(graph, "_WORK_FLOOR", 10**12)
    whole = ritz_bank_as_hopbank(rb, 6).slabs
    assert np.array_equal(_bits(chunked), _bits(whole))
