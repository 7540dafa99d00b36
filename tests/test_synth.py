import tracemalloc

import numpy as np
import pytest

from diffbank import (ConfigError, DataError, SyntheticSpec, generate, graph,
                      make_operator, synth, validate_config)
from diffbank.cli import main
from diffbank.experiment import run_ablation
from diffbank.graph import csr_bytes, graph_hash
from diffbank.rng import rng_for


def test_generate_is_deterministic_per_seed():
    spec = SyntheticSpec(generator="sbm", n=60, seed=3)
    g1, x1, lv1 = generate(spec)
    g2, x2, lv2 = generate(spec)
    assert graph_hash(g1) == graph_hash(g2)
    assert np.array_equal(x1, x2)
    assert np.array_equal(lv1.labels, lv2.labels)
    assert np.array_equal(lv1.train_mask, lv2.train_mask)
    g3, x3, _ = generate(SyntheticSpec(generator="sbm", n=60, seed=4))
    assert graph_hash(g3) != graph_hash(g1) or not np.array_equal(x3, x1)


def _draw_bytes(spec):
    g, x, lv = generate(spec)
    return graph_hash(g), x.tobytes(), lv.labels.tobytes(), lv.train_mask.tobytes(), \
        lv.val_mask.tobytes(), lv.test_mask.tobytes()


def test_spectrum_memo_is_bit_equal_to_cold_draws():
    spec = SyntheticSpec(generator="spectral-signal", n=80, feature_dim=3, seed=5)
    synth._spectrum_slot.cache_clear()
    cold = _draw_bytes(spec)
    synth._spectrum_slot.cache_clear()
    assert _draw_bytes(spec) == cold  # two cold draws
    g, x, lv = generate(SyntheticSpec(generator="spectral-signal", n=80,
                                      feature_dim=3, seed=5))
    assert synth._spectrum_slot.cache_info().hits == 1
    x[:] = 0.0  # each draw owns its arrays; the memo holds only eigenvectors
    lv.labels[:] = 0
    assert _draw_bytes(spec) == cold
    u_hi, lo = synth._signal_modes(spec, None)  # a hit needs no operator
    for arr in (u_hi, lo):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    with pytest.raises(AttributeError):
        spec.seed = 6  # frozen: a spec cannot change under its memo entry


def test_spectrum_memo_keeps_the_most_recent_specs():
    specs = [SyntheticSpec(generator="spectral-signal", n=12, blocks=1,
                           p_intra=0.5, feature_dim=1, confounder_modes=1, seed=s)
             for s in range(synth.SPECTRA_KEPT + 1)]
    synth._spectrum_slot.cache_clear()
    for spec in specs:
        generate(spec)
    generate(specs[-1])
    assert synth._spectrum_slot.cache_info().hits == 1
    generate(specs[0])  # the oldest entry made room for the last spec
    assert synth._spectrum_slot.cache_info().misses == synth.SPECTRA_KEPT + 2


def test_ablation_decomposes_each_seed_once():
    cfg = validate_config({
        "dataset": {"synthetic": {"generator": "spectral-signal", "n": 60,
                                  "feature_dim": 2}},
        "basis": "legendre", "hops": 2,
        "train": {"epochs": 1, "batch_size": 16, "trunk": [4]},
        "hrp": {"stages": 2, "epochs": 1},
        "seeds": [0, 1],
    })
    synth._spectrum_slot.cache_clear()
    run_ablation(cfg)
    info = synth._spectrum_slot.cache_info()
    assert info.misses == 2
    assert info.hits == 4  # the second and third arm reuse both decompositions


def test_generate_shapes_and_dtypes():
    spec = SyntheticSpec(generator="sbm", n=50, blocks=3, feature_dim=5, seed=0)
    g, x, lv = generate(spec)
    assert g.n == 50
    assert x.shape == (50, 5) and x.dtype == np.float32
    assert lv.labels.shape == (50,)
    assert lv.num_classes == 3
    assert set(np.unique(lv.labels)) <= {0, 1, 2}


def test_splits_are_disjoint_and_cover():
    _, _, lv = generate(SyntheticSpec(n=101, seed=1))
    total = (lv.train_mask.astype(int) + lv.val_mask.astype(int)
             + lv.test_mask.astype(int))
    assert np.all(total == 1)
    assert lv.train_mask.sum() == 50
    assert lv.val_mask.sum() == 25
    assert lv.test_mask.sum() == 26


def edge_homophily(g, labels):
    """Fraction of stored edges joining same-label endpoints."""
    rows = np.repeat(np.arange(g.n), np.diff(g.row_ptr))
    return float(np.mean(labels[rows] == labels[g.col_idx]))


def test_edge_probabilities_set_homophily():
    base = dict(generator="sbm", n=150, blocks=2, seed=5)
    g_hom, _, lv_hom = generate(SyntheticSpec(p_intra=0.15, p_inter=0.02, **base))
    g_het, _, lv_het = generate(SyntheticSpec(p_intra=0.02, p_inter=0.15, **base))
    assert edge_homophily(g_hom, lv_hom.labels) > 0.6
    assert edge_homophily(g_het, lv_het.labels) < 0.4


def test_spectral_signal_labels_balanced_and_planted():
    spec = SyntheticSpec(generator="spectral-signal", n=120, feature_dim=4,
                         p_intra=0.08, p_inter=0.08, signal_quantile=0.95,
                         snr=2.0, noise=0.1, seed=2)
    g, x, lv = generate(spec)
    assert lv.num_classes == 2
    frac = lv.labels.mean()
    assert 0.4 <= frac <= 0.6  # median threshold keeps classes near balance
    # the planted eigenvector must be recoverable from the features
    dense = make_operator(g, "shifted")._matrix.toarray()
    evals, evecs = np.linalg.eigh(dense)
    idx = int(round(0.95 * (g.n - 1)))
    u_hi = evecs[:, idx]
    corr = np.abs(np.corrcoef(x.mean(axis=1), u_hi)[0, 1])
    assert corr > 0.5


def test_spectral_signal_dense_cap():
    with pytest.raises(ConfigError):
        SyntheticSpec(generator="spectral-signal", n=5000)


def test_spec_validation():
    with pytest.raises(ConfigError):
        SyntheticSpec(generator="barabasi")
    with pytest.raises(ConfigError):
        SyntheticSpec(n=3)
    with pytest.raises(ConfigError):
        SyntheticSpec(blocks=0)
    with pytest.raises(ConfigError):
        SyntheticSpec(p_intra=1.5)
    with pytest.raises(ConfigError):
        SyntheticSpec(feature_dim=0)
    with pytest.raises(ConfigError):
        SyntheticSpec(generator="spectral-signal", signal_quantile=0.4)
    # the confounder mixes eigenvectors 1..modes of an n-node spectrum
    with pytest.raises(ConfigError, match="confounder"):
        SyntheticSpec(generator="spectral-signal", n=4, confounder_modes=4)
    with pytest.raises(ConfigError, match="confounder"):
        SyntheticSpec(generator="spectral-signal", confounder_modes=-1)
    generate(SyntheticSpec(generator="spectral-signal", n=4, confounder_modes=3))
    generate(SyntheticSpec(n=4))  # an sbm draw has no confounder


def whole_array_sbm_edges(spec, rng):
    """The block-model sampler over one array of all pairs: the bit-equality
    oracle for the chunked pair stream."""
    n, b = spec.n, spec.blocks
    blocks = np.sort(rng.integers(0, b, size=n))
    iu, ju = np.triu_indices(n, k=1)
    same = blocks[iu] == blocks[ju]
    p = np.where(same, spec.p_intra, spec.p_inter)
    keep = rng.random(iu.size) < p
    edges = np.column_stack([iu[keep], ju[keep]])
    return edges, blocks


# (p_intra, p_inter): homophilic, heterophilic, and the p = 0 and p = 1 ends
PROBABILITIES = [(0.3, 0.1), (0.1, 0.3), (0.0, 0.0), (1.0, 1.0), (1.0, 0.0),
                 (0.0, 1.0)]


# chunks of 7 and 1000 pairs split rows; at n = 2000 the default chunk does
# too. There 7-pair chunks would take seconds, and two probability cases,
# a heterophilic one and the all-candidates chunk, keep the oracle's cost down
@pytest.mark.parametrize("n,chunks,probabilities", [
    (4, (7, 1000, None), PROBABILITIES),
    (50, (7, 1000, None), PROBABILITIES),
    (2000, (1000, None), [PROBABILITIES[1], PROBABILITIES[4]]),
])
def test_chunked_pair_stream_is_bit_equal_to_the_whole_array(
        monkeypatch, n, chunks, probabilities):
    default = synth._PAIR_CHUNK
    for generator in ("sbm", "spectral-signal"):
        for blocks in (1, 3):
            for p_intra, p_inter in probabilities:
                spec = SyntheticSpec(generator=generator, n=n, blocks=blocks,
                                     p_intra=p_intra, p_inter=p_inter,
                                     confounder_modes=1, seed=n)
                ref_rng = rng_for(spec.seed, "synthetic", generator)
                ref_edges, ref_blk = whole_array_sbm_edges(spec, ref_rng)
                ref_next = ref_rng.random()
                for chunk in chunks:
                    monkeypatch.setattr(synth, "_PAIR_CHUNK", chunk or default)
                    rng = rng_for(spec.seed, "synthetic", generator)
                    edges, blk = synth._sbm_edges(spec, rng)
                    assert edges.dtype == ref_edges.dtype == np.int64
                    assert edges.shape == ref_edges.shape
                    assert np.array_equal(edges, ref_edges)
                    assert np.array_equal(blk, ref_blk)
                    assert rng.random() == ref_next


def test_sbm_draw_holds_one_chunk_and_its_edges():
    # an array over all 4.5M pairs would take 36 MB per float64 copy
    spec = SyntheticSpec(n=3000, blocks=3, p_intra=0.02, p_inter=0.005, seed=1)
    rng = rng_for(spec.seed, "synthetic", spec.generator)
    tracemalloc.start()
    try:
        edges, _ = synth._sbm_edges(spec, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert edges.shape[0] > 30_000
    assert peak < 2 * 8 * synth._PAIR_CHUNK + 2 * edges.nbytes


class NoDraws:
    """A generator stand-in that fails the test on any draw."""

    def __getattr__(self, name):
        raise AssertionError(f"drew from the generator ({name}) before the memory check")


def test_generate_refuses_what_cannot_fit_before_drawing(monkeypatch, tmp_path):
    spec = SyntheticSpec(n=1000, blocks=4, p_intra=0.02, p_inter=0.4)
    # 499,500 pairs, a quarter of them intra-block at 0.02
    need = csr_bytes(1000, round(499_500 * (0.02 / 4 + 0.4 * 3 / 4)))
    monkeypatch.setattr(graph, "_physical_bytes", lambda: need - 1)
    monkeypatch.setattr(synth, "rng_for", lambda *key: NoDraws())
    with pytest.raises(DataError, match="physical memory"):
        generate(spec)
    out = tmp_path / "big"
    rc = main(["generate", "--nodes", "1000", "--blocks", "4", "--p-intra", "0.02",
               "--p-inter", "0.4", "--out", str(out)])
    assert rc == 3
    assert not out.exists()
    monkeypatch.undo()
    # the expected need is only a preflight; the drawn graph is checked again
    monkeypatch.setattr(graph, "_physical_bytes", lambda: need + 10**6)
    assert generate(spec)[0].n == 1000


def test_generate_counts_the_dense_decomposition_before_drawing(monkeypatch, tmp_path):
    spec = SyntheticSpec(generator="spectral-signal", n=300, blocks=2, p_intra=0.05,
                         p_inter=0.05, feature_dim=4)
    # the expected CSR arrays and features, then the matrix and dsyevd's
    # 2 n^2 workspace: 3 n^2 doubles
    need = csr_bytes(300, round(44_850 * 0.05)) + 12 * 300 * 4 + 3 * 8 * 300**2
    monkeypatch.setattr(graph, "_physical_bytes", lambda: need - 1)
    monkeypatch.setattr(synth, "rng_for", lambda *key: NoDraws())
    with pytest.raises(DataError, match="dense eigendecomposition needs"):
        generate(spec)
    out = tmp_path / "big"
    rc = main(["generate", "--generator", "spectral-signal", "--nodes", "300",
               "--blocks", "2", "--p-intra", "0.05", "--p-inter", "0.05",
               "--feature-dim", "4", "--out", str(out)])
    assert rc == 3
    assert not out.exists()
    monkeypatch.setattr(synth, "rng_for", rng_for)
    # an sbm draw of the same graph decomposes nothing, so it fits
    assert generate(SyntheticSpec(n=300, blocks=2, p_intra=0.05, p_inter=0.05,
                                  feature_dim=4))[0].n == 300
    monkeypatch.setattr(graph, "_physical_bytes", lambda: need)
    synth._spectrum_slot.cache_clear()
    assert generate(spec)[0].n == 300


def oracle_eigenvectors(op):
    """The decomposition spectral-signal draws made before it ran in place:
    numpy's dsyevd on a C-ordered copy, with its own output."""
    return np.linalg.eigh(op._matrix.toarray())[1]


# 22 of the 60 nodes are isolated, so their rows of the operator are zero
@pytest.mark.parametrize("n,p", [(60, 0.02), (300, 0.05), (2000, 0.05)])
def test_in_place_decomposition_is_bit_equal_to_numpy(monkeypatch, n, p):
    spec = SyntheticSpec(generator="spectral-signal", n=n, p_intra=p, p_inter=p,
                         feature_dim=3, seed=n)
    synth._spectrum_slot.cache_clear()
    drawn = _draw_bytes(spec)
    g = generate(spec)[0]
    op = make_operator(g, "shifted")
    if n == 60:
        assert np.count_nonzero(np.diff(g.row_ptr) == 0) == 22
    evecs = synth._eigenvectors(op)
    oracle = oracle_eigenvectors(op)
    assert evecs.dtype == oracle.dtype == np.float64
    assert np.array_equal(evecs, oracle)
    monkeypatch.setattr(synth, "_eigenvectors", oracle_eigenvectors)
    synth._spectrum_slot.cache_clear()
    assert _draw_bytes(spec) == drawn
