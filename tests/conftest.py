"""Shared fixtures: tiny named graphs, random graph soup, dense oracles."""

import numpy as np
import pytest

from diffbank import make_operator
from diffbank.graph import Graph, build_graph
from diffbank.rng import rng_for


@pytest.fixture
def p2():
    """Two nodes, one edge."""
    return build_graph(np.array([[0, 1]]), 2)


@pytest.fixture
def k3():
    """Triangle."""
    return build_graph(np.array([[0, 1], [1, 2], [0, 2]]), 3)


@pytest.fixture
def star5():
    """Star: hub 0 with four leaves."""
    return build_graph(np.array([[0, i] for i in range(1, 5)]), 5)


def random_graph(rng, n, kind=None):
    """One connected-ish random graph: ER, two-block, or near-regular."""
    kind = kind if kind is not None else rng.choice(["er", "sbm", "regular"])
    if kind == "er":
        p = rng.uniform(0.15, 0.5)
        iu, ju = np.triu_indices(n, k=1)
        keep = rng.random(iu.size) < p
        edges = np.column_stack([iu[keep], ju[keep]])
    elif kind == "sbm":
        blocks = rng.integers(0, 2, size=n)
        iu, ju = np.triu_indices(n, k=1)
        same = blocks[iu] == blocks[ju]
        p = np.where(same, 0.5, 0.1)
        keep = rng.random(iu.size) < p
        edges = np.column_stack([iu[keep], ju[keep]])
    else:
        # circulant: ring plus chords, exactly regular when n allows
        offsets = [1, 2]
        rows = []
        for off in offsets:
            src = np.arange(n)
            rows.append(np.column_stack([src, (src + off) % n]))
        edges = np.concatenate(rows)
    if edges.size == 0:
        edges = np.array([[0, 1 % n]])
    return build_graph(edges, n)


def dense_shifted(g: Graph) -> np.ndarray:
    """Dense matrix of the shifted operator, straight from its CSR form."""
    return make_operator(g, "shifted")._matrix.toarray()


def dense_operator(g: Graph, kind: str) -> np.ndarray:
    return make_operator(g, kind)._matrix.toarray()


def spectral_hop_oracle(g: Graph, x: np.ndarray, poly_at) -> np.ndarray:
    """Evaluate U diag(p_k(lam)) U^T X for each k via a dense eigh.

    ``poly_at(k, lam)`` returns the polynomial values on the eigenvalue
    array; the result is stacked (hops+1, n, d) float64.
    """
    s = dense_shifted(g)
    lam, u = np.linalg.eigh(s)
    proj = u.T @ x.astype(np.float64)
    return lam, u, proj


def oracle_slab(lam, u, proj, pk) -> np.ndarray:
    return u @ (pk(lam)[:, None] * proj)


def rel_fro(a, b) -> float:
    denom = np.linalg.norm(b)
    if denom == 0:
        return float(np.linalg.norm(a))
    return float(np.linalg.norm(np.asarray(a, np.float64) - np.asarray(b, np.float64))
                 / denom)


def finite_diff_grads(loss_fn, params, eps=1e-3):
    """Central-difference gradient of a scalar loss over a param dict."""
    out = {}
    for name, w in params.items():
        gw = np.zeros_like(w, dtype=np.float64)
        flat = w.reshape(-1)
        gflat = gw.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = loss_fn()
            flat[i] = orig - eps
            lo = loss_fn()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * eps)
        out[name] = gw
    return out


def seeded_features(g: Graph, d: int, seed: int = 0) -> np.ndarray:
    return rng_for(seed, "features", g.n, d).normal(size=(g.n, d)).astype(np.float64)
