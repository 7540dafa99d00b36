"""Immutable CSR graphs and degree-normalized sparse operators.

The graph container is a plain CSR index structure (no weights); operators
derived from it carry 32-bit edge weights plus an explicit per-node diagonal
term. Four operator kinds are supported:

``dad``
    symmetric degree-normalized adjacency D^{-1/2} A D^{-1/2}
``da``
    random-walk adjacency D^{-1} A (rows sum to 1 on non-isolated nodes)
``lap``
    normalized Laplacian I - D^{-1/2} A D^{-1/2}
``shifted``
    normalized Laplacian minus identity; its spectrum lies in [-1, 1],
    which is the domain every polynomial and Krylov routine here assumes

Isolated nodes get a zero inverse square-root degree, so their ``lap``
diagonal is 0 and their ``shifted`` diagonal is -1.

Matrix products accumulate in 64-bit partial sums regardless of the input
dtype and reduce each output row over neighbors in ascending column order,
so results do not depend on thread count or dict ordering. Every product
bumps a module-level counter used by cost assertions and stage reports.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import DataError

__all__ = [
    "Graph",
    "LabelVector",
    "SparseOperator",
    "build_graph",
    "degrees",
    "graph_hash",
    "make_operator",
    "reset_spmm_count",
    "spmm",
    "spmm_call_count",
    "OPERATOR_KINDS",
]

OPERATOR_KINDS = ("dad", "da", "lap", "shifted")
# largest node count whose CSR sort key src * n + dst fits in int64
MAX_NODES = 3_037_000_499

_SPMM_CALLS = 0


def spmm_call_count() -> int:
    """Number of sparse-times-dense products performed since the last reset."""
    return _SPMM_CALLS


def reset_spmm_count() -> None:
    global _SPMM_CALLS
    _SPMM_CALLS = 0


@dataclass(frozen=True)
class Graph:
    """CSR adjacency structure. Neighbor lists are sorted and duplicate-free."""

    n: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    undirected: bool = True

    @property
    def num_edges(self) -> int:
        """Stored (directed) entry count; an undirected edge counts twice."""
        return int(self.col_idx.shape[0])


@dataclass(frozen=True)
class LabelVector:
    """Per-node class ids with disjoint train/val/test masks.

    ``labels`` holds -1 for nodes that carry no label. ``num_classes`` is
    the number of distinct classes, at least max(label) + 1.
    """

    labels: np.ndarray
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray
    num_classes: int

    def __post_init__(self):
        if np.any((self.train_mask & self.val_mask)
                  | (self.train_mask & self.test_mask)
                  | (self.val_mask & self.test_mask)):
            raise DataError("train/val/test masks overlap")
        labeled = self.train_mask | self.val_mask | self.test_mask
        lab = self.labels[labeled]
        if lab.size and (lab.min() < 0 or lab.max() >= self.num_classes):
            raise DataError("labeled node with class id outside [0, num_classes)")


def build_graph(edges, n, *, undirected: bool = True,
                add_self_loops: bool = False) -> Graph:
    """Build a CSR graph from an edge array.

    Parameters
    ----------
    edges : array-like of shape (E, 2)
        Integer endpoints, 0-based. May be empty.
    n : int
        Node count, must be positive.
    undirected : bool
        When true (default) each input edge is stored in both directions.
        Directed graphs are only accepted with ``undirected=False``; the
        symmetric operator kinds then refuse to build on them.
    add_self_loops : bool
        Append (i, i) for every node before deduplication.

    Entries are sorted by the one int64 key ``src * n + dst`` and duplicates
    dropped, so ``n`` may not exceed ``MAX_NODES``.
    """
    if n <= 0:
        raise DataError("graph must have at least one node")
    if n > MAX_NODES:
        raise DataError(f"graph of {n} nodes exceeds the supported maximum of "
                        f"{MAX_NODES}")
    e = np.asarray(edges, dtype=np.int64)
    if e.size == 0:
        e = np.zeros((0, 2), dtype=np.int64)
    if e.ndim != 2 or e.shape[1] != 2:
        raise DataError("edges must be an (E, 2) array")
    if e.size and (e.min() < 0 or e.max() >= n):
        raise DataError("edge endpoint out of range [0, n)")

    src, dst = e[:, 0], e[:, 1]
    if undirected:
        off = src != dst
        src = np.concatenate([src, dst[off]])
        dst = np.concatenate([dst, e[off, 0]])
    if add_self_loops:
        loops = np.arange(n, dtype=np.int64)
        src = np.concatenate([src, loops])
        dst = np.concatenate([dst, loops])

    key = np.sort(src * n + dst)
    keep = np.ones(key.size, dtype=bool)
    keep[1:] = key[1:] != key[:-1]
    src, dst = np.divmod(key[keep], n)

    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=row_ptr[1:])
    row_ptr.setflags(write=False)
    dst.setflags(write=False)
    return Graph(n=n, row_ptr=row_ptr, col_idx=dst, undirected=undirected)


def degrees(g: Graph) -> np.ndarray:
    """Row counts of the CSR structure (a self-loop counts once)."""
    return np.diff(g.row_ptr)


def graph_hash(g: Graph) -> str:
    """Stable content hash of the CSR structure, for provenance records."""
    import hashlib

    h = hashlib.sha256()
    h.update(np.int64(g.n).tobytes())
    h.update(np.ascontiguousarray(g.row_ptr, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(g.col_idx, dtype=np.int64).tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class SparseOperator:
    """A graph operator: 32-bit edge weights plus an explicit diagonal.

    ``edge_weights`` aligns with ``graph.col_idx``; ``diag`` holds the
    per-node diagonal term that the adjacency part does not cover. The
    combined matrix is cached in ``_matrix`` with float64 data so products
    accumulate in 64-bit arithmetic.
    """

    kind: str
    graph: Graph
    edge_weights: np.ndarray
    diag: np.ndarray
    _matrix: sp.csr_matrix = field(repr=False)

    @property
    def n(self) -> int:
        return self.graph.n


def make_operator(g: Graph, kind: str) -> SparseOperator:
    """Construct one of the four degree-normalized operators on ``g``."""
    if kind not in OPERATOR_KINDS:
        raise ValueError(f"unknown operator kind {kind!r}, expected one of {OPERATOR_KINDS}")
    if kind != "da" and not g.undirected:
        raise ValueError(f"operator {kind!r} requires an undirected graph; "
                         "symmetrize at load time instead")

    deg = degrees(g).astype(np.float64)
    rows = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.row_ptr))
    cols = g.col_idx

    with np.errstate(divide="ignore"):
        dinv = np.where(deg > 0, 1.0 / deg, 0.0)
        dinv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(deg), 0.0)

    if kind == "da":
        w = dinv[rows]
        diag = np.zeros(g.n)
    else:
        w_dad = dinv_sqrt[rows] * dinv_sqrt[cols]
        if kind == "dad":
            w = w_dad
            diag = np.zeros(g.n)
        elif kind == "lap":
            w = -w_dad
            diag = np.where(deg > 0, 1.0, 0.0)
        else:  # shifted
            w = -w_dad
            diag = np.where(deg > 0, 0.0, -1.0)

    w32 = w.astype(np.float32)
    d32 = diag.astype(np.float32)
    adj = sp.csr_matrix((w32.astype(np.float64), cols, g.row_ptr), shape=(g.n, g.n))
    mat = (adj + sp.diags(d32.astype(np.float64), format="csr")).tocsr()
    mat.sort_indices()
    w32.setflags(write=False)
    d32.setflags(write=False)
    return SparseOperator(kind=kind, graph=g, edge_weights=w32, diag=d32, _matrix=mat)


def spmm(op: SparseOperator, m: np.ndarray) -> np.ndarray:
    """Multiply the operator against a dense (n, d) block.

    The product is computed entirely in float64 and cast back to the input
    dtype, so a float32 block still gets 64-bit partial sums. Increments
    the module SpMM counter by one regardless of block width.
    """
    global _SPMM_CALLS
    x = np.asarray(m)
    if x.shape[0] != op.n:
        raise ValueError(f"operand has {x.shape[0]} rows, operator expects {op.n}")
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]
    out = op._matrix @ x.astype(np.float64, copy=False)
    _SPMM_CALLS += 1
    if squeeze:
        out = out[:, 0]
    return out.astype(x.dtype, copy=False) if x.dtype != np.float64 else out
