"""Seeded synthetic datasets: block-model graphs and planted spectral signals.

Two generators share the same graph machinery:

``sbm``
    Stochastic block model. Labels are block ids; features are a noisy
    per-block mean. ``p_intra`` above ``p_inter`` makes the graph
    homophilic, below it heterophilic.

``spectral-signal``
    The controlled heterophily benchmark. A block-model graph is built,
    the dense spectrum of its shifted operator is computed, and labels are
    the sign of one eigenvector from the upper (high-frequency) end. Every
    feature channel mixes three parts: a smooth confounder drawn from the
    low end of the spectrum, the label-carrying eigenvector scaled by
    ``snr``, and white noise. Smoothing diffusion suppresses exactly the
    band that predicts the labels, which is what separates feature banks
    that can weight one band from plain power iterations on this family.

Splits are node-level 50/25/25 train/val/test, drawn from the seed.

A draw is a pure function of its spec. The block-model edges take one
uniform draw per node pair, walked in row-major order in fixed chunks, so
a draw holds one chunk and its edge list, never an array over all pairs;
a graph whose expected edges and features would not fit in physical
memory is refused before the first draw.

The costliest step of a spectral-signal draw is the dense
eigendecomposition of the shifted operator. It runs LAPACK ``dsyevd`` in
place on a private Fortran-ordered copy of the dense matrix, which becomes
the eigenvectors, so the draw holds 3 n^2 doubles at its peak: the matrix
and ``dsyevd``'s 2 n^2 workspace (96 MB at n = 2,000, 403 MB at the
4,096-node limit). The spectral-signal preflight counts them too.
``dsyevd`` (scipy's ``driver="evd"``, on the lower triangle) is the
routine ``np.linalg.eigh`` calls, so the eigenvectors, and with them every
dataset, are those ``np.linalg.eigh`` returns bit for bit; scipy's default
``evr`` driver returns others. The two eigenvector blocks a draw keeps
are memoized per spec, process-wide, for the
``SPECTRA_KEPT`` most recent specs: every ablation arm, thread and caller
drawing the same (spec, seed) decomposes its graph once. Each call still
draws its own edges and builds its own graph, operator, features and
splits, and returns fresh arrays.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError
from .graph import Graph, LabelVector, build_graph, check_fits, csr_bytes, make_operator
from .rng import rng_for

__all__ = ["SyntheticSpec", "generate"]

MAX_DENSE_NODES = 4096


@dataclass(frozen=True)
class SyntheticSpec:
    generator: str = "sbm"
    n: int = 400
    blocks: int = 2
    p_intra: float = 0.05
    p_inter: float = 0.05
    feature_dim: int = 8
    snr: float = 1.0
    noise: float = 1.0
    signal_quantile: float = 0.9
    confounder_modes: int = 4
    confounder_scale: float = 3.0
    seed: int = 0

    def __post_init__(self):
        if self.generator not in ("sbm", "spectral-signal"):
            raise ConfigError(f"unknown generator {self.generator!r}")
        if self.n < 4:
            raise ConfigError("synthetic graphs need at least 4 nodes")
        if self.blocks < 1 or self.blocks > self.n:
            raise ConfigError("block count must lie in [1, n]")
        if not (0.0 <= self.p_intra <= 1.0 and 0.0 <= self.p_inter <= 1.0):
            raise ConfigError("edge probabilities must lie in [0, 1]")
        if self.feature_dim < 1:
            raise ConfigError("feature dimension must be >= 1")
        if not (0.5 < self.signal_quantile < 1.0):
            raise ConfigError("signal quantile must lie in (0.5, 1)")
        if self.generator == "spectral-signal" and not 0 <= self.confounder_modes < self.n:
            raise ConfigError("confounder modes must lie in [0, n - 1]")
        if self.generator == "spectral-signal" and self.n > MAX_DENSE_NODES:
            raise ConfigError(f"spectral-signal needs a dense eigendecomposition and "
                              f"is limited to {MAX_DENSE_NODES} nodes")


# pairs per step of the block-model pair stream: 8 MB of float64 draws
_PAIR_CHUNK = 1 << 20


def _sbm_edges(spec: SyntheticSpec, rng) -> tuple[np.ndarray, np.ndarray]:
    """Sorted block ids and the (i, j), i < j, edges of one block-model draw.

    A graph whose CSR arrays (sized from the expected edge count) and
    n x ``feature_dim`` features, plus a spectral-signal draw's dense
    decomposition, would not fit in physical memory raises DataError
    before the first draw. Pair (i, j) is kept when its uniform
    draw falls below its block pair's probability.
    The draws follow the pairs in row-major order and come in chunks of
    ``_PAIR_CHUNK``, so a draw holds one chunk plus its edges, while the
    edges, their order and the generator's state afterwards are those of
    one ``rng.random`` over all n (n - 1) / 2 pairs.
    """
    n, b = spec.n, spec.blocks
    p_intra, p_inter = spec.p_intra, spec.p_inter
    total = n * (n - 1) // 2
    # a pair is intra-block with probability 1 / b
    expected = total * (p_intra / b + p_inter * (1 - 1 / b))
    # the CSR arrays, then the float64 feature draw and its float32 copy
    need = csr_bytes(n, round(expected)) + 12 * n * spec.feature_dim
    what = (f"a block-model graph of {n} nodes and ~{expected:.3g} edges "
            f"with {spec.feature_dim:,} feature channels")
    if spec.generator == "spectral-signal":
        # the dense matrix that becomes the eigenvectors, and dsyevd's 2 n^2 workspace
        need += 3 * 8 * n * n
        what += " and its dense eigendecomposition"
    check_fits(need, what)
    blocks = np.sort(rng.integers(0, b, size=n))
    p_max = max(p_intra, p_inter)
    # pairs in the rows before each row; the last row has none
    rows = np.arange(n - 1, dtype=np.int64)
    row_start = rows * (2 * n - rows - 1) // 2
    draws = np.empty(min(_PAIR_CHUNK, total))
    parts = []
    for start in range(0, total, _PAIR_CHUNK):
        r = rng.random(out=draws[:min(_PAIR_CHUNK, total - start)])
        cand = np.flatnonzero(r < p_max)
        flat = cand + start
        i = np.searchsorted(row_start, flat, "right") - 1
        j = flat - row_start[i] + i + 1
        keep = r[cand] < np.where(blocks[i] == blocks[j], p_intra, p_inter)
        parts.append(np.column_stack([i[keep], j[keep]]))
    return np.concatenate(parts), blocks


def _splits(n: int, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    perm = rng.permutation(n)
    n_train = n // 2
    n_val = n // 4
    train = np.zeros(n, dtype=bool)
    val = np.zeros(n, dtype=bool)
    test = np.zeros(n, dtype=bool)
    train[perm[:n_train]] = True
    val[perm[n_train:n_train + n_val]] = True
    test[perm[n_train + n_val:]] = True
    return train, val, test


def generate(spec: SyntheticSpec):
    """Build (graph, features, labels) for the given spec, deterministically.

    A graph that cannot fit raises DataError before anything is drawn.
    """
    rng = rng_for(spec.seed, "synthetic", spec.generator)
    edges, blocks = _sbm_edges(spec, rng)
    g = build_graph(edges, spec.n, undirected=True)

    if spec.generator == "sbm":
        means = rng.normal(scale=spec.snr, size=(spec.blocks, spec.feature_dim))
        x = means[blocks] + rng.normal(scale=spec.noise, size=(spec.n, spec.feature_dim))
        y = blocks.astype(np.int64)
        num_classes = spec.blocks
    else:
        x, y = _spectral_signal(spec, g, rng)
        num_classes = 2

    train, val, test = _splits(spec.n, rng)
    lv = LabelVector(labels=y, train_mask=train, val_mask=val, test_mask=test,
                     num_classes=num_classes)
    return g, x.astype(np.float32), lv


# an entry is n * (confounder_modes + 1) floats, 160 KB at the dense limit
# with the default 4 modes; an ablation over up to this many seeds
# decomposes each seed's graph once, however its arms are ordered
SPECTRA_KEPT = 64


@lru_cache(maxsize=SPECTRA_KEPT)
def _spectrum_slot(spec: SyntheticSpec) -> dict:
    """Per-spec holder that the first draw of ``spec`` fills with its modes."""
    return {}


def _eigenvectors(op) -> np.ndarray:
    """Eigenvectors of the dense operator, by ascending eigenvalue: LAPACK
    ``dsyevd`` in place on a private Fortran-ordered copy of the matrix."""
    # imported on first use: scipy.linalg adds about 75 ms to a cold start
    from scipy.linalg import eigh

    return eigh(op._matrix.toarray(order="F"), driver="evd", overwrite_a=True,
                check_finite=False)[1]


def _signal_modes(spec: SyntheticSpec, op):
    """(label eigenvector, confounder eigenvectors) of the dense operator.

    The graph is a function of the spec, so the decomposition is done once
    per spec and the read-only result shared by later draws.
    """
    slot = _spectrum_slot(spec)
    if "modes" not in slot:
        evecs = _eigenvectors(op)
        idx = int(np.clip(round(spec.signal_quantile * (spec.n - 1)), 0, spec.n - 1))
        modes = (evecs[:, idx].copy(), evecs[:, 1:1 + spec.confounder_modes].copy())
        for a in modes:
            a.setflags(write=False)
        slot["modes"] = modes
    return slot["modes"]


def _spectral_signal(spec: SyntheticSpec, g: Graph, rng):
    u_hi, lo = _signal_modes(spec, make_operator(g, "shifted"))
    y = (u_hi > np.median(u_hi)).astype(np.int64)

    # smooth confounder: random mix of the lowest nontrivial eigenvectors
    scale = np.sqrt(spec.n)  # eigenvectors are unit norm; bring channels to O(1)
    x = np.empty((spec.n, spec.feature_dim))
    for c in range(spec.feature_dim):
        mix = lo @ rng.normal(size=spec.confounder_modes)
        x[:, c] = (spec.confounder_scale * scale * mix / max(spec.confounder_modes, 1)
                   + spec.snr * scale * u_hi
                   + rng.normal(scale=spec.noise, size=spec.n))
    return x, y
