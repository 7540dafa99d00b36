"""The row-blocked propagation kernel: results never depend on its threads,
its column bands or its row tiles.

Two blocks are forced by setting ``graph._CORES`` to 2 and the work floor
to 0 before the operator is made; ``_CORES = 1`` gives the one-block path.
A small ``graph._CHUNK_ROWS`` splits the row-chunked passes into several
chunks on the same small graphs, and small ``graph._BAND_COLS`` and
``graph._TILE_ROWS`` give them several bands and tiles.
"""

import functools
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from diffbank import NumericalError, graph, validate_config
from diffbank.banks import (chebyshev_bank, jacobi_bank, jacobi_coefficients,
                            jacobi_endpoint_values, legendre_bank, monomial_bank)
from diffbank.calibration import estimate_moments
from diffbank.experiment import build_bank
from diffbank.graph import (OPERATOR_KINDS, build_graph, make_operator, row_chunks, spmm,
                            spmm_call_count)
from diffbank.krylov import batched_lanczos, ritz_bank, ritz_bank_as_hopbank

from conftest import dense_shifted, random_graph, seeded_features
from diffbank.rng import rng_for


def _kernel(monkeypatch, cores):
    monkeypatch.setattr(graph, "_CORES", cores)
    monkeypatch.setattr(graph, "_WORK_FLOOR", 0)


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
        before = spmm_call_count()
        vals.append(estimate_moments(op, order=9, probes=7, seed=2).values)
        assert spmm_call_count() - before == 9
    assert np.array_equal(vals[0], vals[1])


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
    monkeypatch.setattr(graph, "_CHUNK_ROWS", 16)
    op = make_operator(g, "shifted")
    second = [lo for lo in range(0, g.n, 16) if lo >= op._cuts[1]]
    done = []

    def then(lo, hi, rows):
        if lo == 0:
            raise NumericalError("first block")
        if lo == second[0]:
            time.sleep(0.2)
        done.append(lo)

    with pytest.raises(NumericalError, match="first block"):
        spmm(op, x.astype(np.float64), then=then)
    # no block may still write the caller's buffers once spmm has returned
    assert done == second


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


def test_small_products_run_as_one_block(soup, monkeypatch):
    g, x = soup
    monkeypatch.setattr(graph, "_CORES", 2)
    op = make_operator(g, "shifted")
    assert len(op._cuts) == 3 and op._matrix.nnz * x.shape[1] < graph._WORK_FLOOR
    calls = []

    def then(lo, hi, rows):
        calls.append((lo, hi, rows.shape))

    spmm(op, x.astype(np.float64), then=then)
    assert calls == [(0, g.n, x.shape)]


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
    chunked = ritz_bank_as_hopbank(rb, 6, raw_hop0=x).slabs
    monkeypatch.setattr(graph, "_WORK_FLOOR", 10**12)
    whole = ritz_bank_as_hopbank(rb, 6, raw_hop0=x).slabs
    assert np.array_equal(_bits(chunked), _bits(whole))


def test_then_gets_each_chunks_product_rows_in_chunk_order(soup, monkeypatch):
    g, x = soup
    x64 = x.astype(np.float64)
    monkeypatch.setattr(graph, "_CHUNK_ROWS", 16)
    for cores in (1, 2, 3):
        _kernel(monkeypatch, cores)
        op = make_operator(g, "lap")
        got = spmm(op, x64, then=lambda lo, hi, rows: (lo, hi, rows.copy()))
        assert [(lo, hi) for lo, hi, _ in got] == [
            (lo, min(lo + 16, g.n)) for lo in range(0, g.n, 16)]
        rows = np.concatenate([r for _, _, r in got])
        assert np.array_equal(_bits(rows), _bits(op._matrix @ x64))
    with pytest.raises(ValueError, match="exclusive"):
        spmm(op, x64, out=np.empty(x.shape), then=lambda lo, hi, rows: None)


# The whole-array recurrences the chunked ones replaced: every step's
# product in full, then the update in the same float64 operation order.
# They are the oracles the chunked builds must match bit for bit.

def _whole_array_jacobi(op, x, hops, alpha, beta, rescale=None):
    rc = jacobi_coefficients(hops, alpha, beta)
    slabs = np.empty((hops + 1,) + x.shape, dtype=np.float32)
    slabs[0] = x
    prev, cur = None, np.array(x, dtype=np.float64)
    for k in range(hops):
        y = op._matrix @ cur
        y *= rc.a[k]
        if rc.b[k] != 0.0:
            y += cur * rc.b[k]
        if rc.c[k] != 0.0:
            y -= prev * rc.c[k]
        slabs[k + 1] = y if rescale is None else y / rescale[k + 1]
        prev, cur = cur, y
    return slabs


def _whole_array_monomial(op, x, hops):
    slabs = np.empty((hops + 1,) + x.shape, dtype=np.float32)
    slabs[0] = x
    cur = np.array(x, dtype=np.float64)
    for k in range(1, hops + 1):
        cur = op._matrix @ cur
        slabs[k] = cur
    return slabs


def _whole_array_moments(op, order, probes, seed):
    z = rng_for(seed, "chebyshev-probes", "gaussian").standard_normal((op.n, probes))

    def mean_dot(v):
        # per-chunk sums over the chunks row_chunks uses, added in order
        parts = row_chunks(op, probes, lambda lo, hi: np.sum(z[lo:hi] * v[lo:hi]))
        return functools.reduce(np.add, parts) / probes

    m = np.empty(order + 1)
    v_prev, v = z, op._matrix @ z
    m[0], m[1] = mean_dot(z), mean_dot(v)
    for k in range(2, order + 1):
        nxt = op._matrix @ v
        nxt *= 2.0
        nxt -= v_prev
        v_prev, v = v, nxt
        m[k] = mean_dot(v)
    return m


@pytest.mark.parametrize("cores,chunk_rows,one_chunk", [
    (1, 16, False), (2, 16, False), (2, 1024, False), (2, 16, True)])
def test_chunked_recurrences_match_the_whole_array_ones(soup, monkeypatch, cores,
                                                        chunk_rows, one_chunk):
    g, x = soup
    _kernel(monkeypatch, cores)
    monkeypatch.setattr(graph, "_CHUNK_ROWS", chunk_rows)
    if one_chunk:  # the path below the work floor
        monkeypatch.setattr(graph, "_WORK_FLOOR", 10**12)
    op = make_operator(g, "shifted")
    x64 = x.astype(np.float64)
    cheb = jacobi_endpoint_values(7, -0.5, -0.5)
    pairs = [
        (legendre_bank(op, x, 7).slabs, _whole_array_jacobi(op, x, 7, 0.0, 0.0)),
        (chebyshev_bank(op, x, 7).slabs,
         _whole_array_jacobi(op, x, 7, -0.5, -0.5, cheb)),
        (jacobi_bank(op, x, 7, 0.3, -0.4).slabs, _whole_array_jacobi(op, x, 7, 0.3, -0.4)),
        (jacobi_bank(op, x64, 5, -0.7, 0.2).slabs,
         _whole_array_jacobi(op, x64, 5, -0.7, 0.2)),
        (monomial_bank(make_operator(g, "dad"), x, 6).slabs,
         _whole_array_monomial(make_operator(g, "dad"), x, 6)),
    ]
    for order in (1, 2, 9):
        pairs.append((estimate_moments(op, order, 7, seed=2).values,
                      _whole_array_moments(op, order, 7, 2)))
    for got, want in pairs:
        assert np.array_equal(_bits(got), _bits(want))


# each returns the bytes it keeps besides the recurrence: a bank its slabs,
# the moments their (n, probes) probe block z, d probes here
@pytest.mark.parametrize("build", [
    lambda op, x, hops: legendre_bank(op, x, hops).slabs.nbytes,
    lambda op, x, hops: jacobi_bank(op, x, hops, 0.3, -0.4).slabs.nbytes,  # b != 0
    lambda op, x, hops: monomial_bank(op, x, hops).slabs.nbytes,
    lambda op, x, hops: estimate_moments(op, hops, x.shape[1]).probes * op.n * 8,
], ids=["legendre", "jacobi", "monomial", "moments"])
def test_a_recurrence_holds_two_working_blocks(monkeypatch, build):
    # above the work floor a recurrence allocates what it keeps, X_{k-1}
    # and X_k, and per block a tile of product rows (and a chunk of b X_k
    # rows when b != 0); a tile of two chunks keeps that well under one
    # (n, d) block
    _kernel(monkeypatch, 2)
    monkeypatch.setattr(graph, "_TILE_ROWS", 2 * graph._CHUNK_ROWS)
    n, d, hops = 20_000, 16, 4
    g = build_graph(np.column_stack([np.arange(n), (np.arange(n) + 1) % n]), n)
    op = make_operator(g, "shifted")
    x = seeded_features(g, d, 1).astype(np.float32)
    block, chunk = n * d * 8, graph._CHUNK_ROWS * d * 8
    tile = 2 * chunk
    tracemalloc.start()
    try:
        kept = build(op, x, hops)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= kept + 2 * block + 2 * (tile + chunk) + chunk


@pytest.mark.parametrize("kind", ["dad", "lap"])  # without and with diagonal terms
def test_an_operator_stores_its_entries_once(monkeypatch, kind):
    # three bands; a copy of the entries as one CSR matrix would be another
    # 12 bytes per entry
    monkeypatch.setattr(graph, "_BAND_COLS", 1000)
    n = 3000
    g = build_graph(rng_for(7, "bands").integers(0, n, size=(20 * n, 2)), n)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        op = make_operator(g, kind)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    entries = op._w.nbytes + op._idx.nbytes
    assert op._ptr.size == 3 * n + 1 and op._w.size == op._idx.size > 100_000
    assert kept <= entries + op._ptr.nbytes + entries // 10
    assert "_matrix" not in vars(op)


def test_a_sparse_graph_gets_no_more_bands_than_entries_per_row(monkeypatch):
    # 100-column bands would give a 20,000-node ring (2 entries per row) 200
    # row pointers per row; wider bands keep them no larger than the entries
    monkeypatch.setattr(graph, "_BAND_COLS", 100)
    n = 20_000
    ring = build_graph(np.column_stack([np.arange(n), (np.arange(n) + 1) % n]), n)
    x = seeded_features(ring, 3, 1).astype(np.float64)
    for kind in ("dad", "shifted"):
        op = make_operator(ring, kind)
        assert op._ptr.size == 2 * n + 1
        assert op._ptr.nbytes <= op._idx.nbytes + op._w.nbytes
        assert np.array_equal(_bits(spmm(op, x)), _bits(op._matrix @ x))
    # fewer entries than rows: one band, the plain CSR row pointer
    bare = build_graph(np.zeros((0, 2), dtype=np.int64), 500)
    assert make_operator(bare, "dad")._ptr.size == make_operator(bare, "shifted")._ptr.size == 501


@pytest.fixture(scope="module")
def ragged(soup):
    """The soup's graph with a self-loop and isolated nodes 90-96, so the
    shifted operator has -1 diagonal entries. 97 nodes are a multiple of
    neither a 7-column band nor a 32-row tile; its features have a zero
    column, which negative weights turn into -0.0 terms."""
    g, x = soup
    src = np.repeat(np.arange(g.n), np.diff(g.row_ptr))
    edges = np.column_stack([src, g.col_idx])
    g = build_graph(np.concatenate([edges[src < g.col_idx], [[3, 3]]]), g.n + 7)
    x = np.concatenate([x, seeded_features(g, x.shape[1], seed=5)[:7]]).astype(np.float32)
    x[:, 2] = 0.0
    return g, x


@pytest.mark.parametrize("cores", [1, 2])
def test_tiny_bands_and_tiles_are_bit_identical(ragged, monkeypatch, cores):
    g, x = ragged
    x64 = x.astype(np.float64)
    _kernel(monkeypatch, cores)
    monkeypatch.setattr(graph, "_CHUNK_ROWS", 16)
    one_band = {kind: make_operator(g, kind)._matrix for kind in OPERATOR_KINDS}
    monkeypatch.setattr(graph, "_BAND_COLS", 7)
    monkeypatch.setattr(graph, "_TILE_ROWS", 32)
    for kind in OPERATOR_KINDS:
        op = make_operator(g, kind)
        assert op._ptr.size == 14 * g.n + 1
        # entries per band and row: some rows have none in some bands, and
        # rows 90-96 hold at most their diagonal entry
        counts = np.diff(op._ptr).reshape(14, g.n)
        assert (counts[:, :90] == 0).any() and counts[:, 90:].sum() <= 7
        mat = op._matrix
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(mat, part), getattr(one_band[kind], part))
        want = mat @ x64
        assert not np.signbit(want[:, 2]).any()
        out = np.empty(want.shape)
        spmm(op, x64, out=out)
        tiles = np.concatenate(spmm(op, x64, then=lambda lo, hi, rows: rows.copy()))
        for got in (spmm(op, x64), out, tiles):
            assert np.array_equal(_bits(got), _bits(want))
        assert np.array_equal(_bits(spmm(op, x64[:, 2])), _bits(want[:, 2]))
    op, dad = make_operator(g, "shifted"), make_operator(g, "dad")
    pairs = [
        (legendre_bank(op, x, 7).slabs, _whole_array_jacobi(op, x, 7, 0.0, 0.0)),
        (jacobi_bank(op, x, 5, 0.3, -0.4).slabs, _whole_array_jacobi(op, x, 5, 0.3, -0.4)),
        (monomial_bank(dad, x, 6).slabs, _whole_array_monomial(dad, x, 6)),
        (estimate_moments(op, 9, 7, seed=2).values, _whole_array_moments(op, 9, 7, 2)),
    ]
    for got, want in pairs:
        assert np.array_equal(_bits(got), _bits(want))


BUILDERS = {
    "monomial": lambda g, x, **kw: monomial_bank(make_operator(g, "dad"), x, 6, **kw),
    "legendre": lambda g, x, **kw: legendre_bank(make_operator(g, "shifted"), x, 6, **kw),
    "chebyshev": lambda g, x, **kw: chebyshev_bank(make_operator(g, "shifted"), x, 6, **kw),
    "jacobi": lambda g, x, **kw: jacobi_bank(make_operator(g, "shifted"), x, 6, 0.3, -0.4,
                                             **kw),
    "krylov": lambda g, x, **kw: ritz_bank_as_hopbank(
        ritz_bank(batched_lanczos(make_operator(g, "shifted"), x, 7)), 6, x, **kw),
}


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("basis", sorted(BUILDERS))
def test_a_builder_fills_out_with_the_bytes_it_would_allocate(ragged, monkeypatch,
                                                              basis, cores):
    # the ragged features have a zero column, which Krylov skips: its
    # slabs must be zeroed in an ``out`` that holds garbage
    g, x = ragged
    _kernel(monkeypatch, cores)
    monkeypatch.setattr(graph, "_CHUNK_ROWS", 16)
    build = BUILDERS[basis]
    want = build(g, x)
    if basis == "krylov":
        assert want.provenance["skipped_channels"] == [2]
    out = np.full_like(want.slabs, np.nan)
    got = build(g, x, out=out)
    assert got.slabs is out and got.provenance == want.provenance
    assert np.array_equal(_bits(out), _bits(want.slabs))
    # the input as the out's own slab 0, which the builder leaves as it is
    out = np.full_like(want.slabs, np.nan)
    out[0] = x
    got = build(g, out[0], out=out)
    assert got.slabs is out and np.array_equal(_bits(out), _bits(want.slabs))
    for bad in (np.empty(want.slabs.shape), np.empty(want.slabs.shape[1:], np.float32),
                np.empty(want.slabs.shape[::-1], np.float32).T):
        with pytest.raises(ValueError, match="out must be"):
            build(g, x, out=bad)
