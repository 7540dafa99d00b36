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
dtype and reduce each output row over neighbors in ascending column order.
``spmm`` is the one propagation kernel. It runs each block of rows that
``make_operator`` cut (about equal stored entries each), then an optional
row-local update from the caller, on one persistent thread pool, the
calling thread taking the first block. Blocks are views of the CSR arrays
and write the caller's output rows with the routine ``csr @ dense`` calls,
so each row is the serial product bit for bit at any thread count. Kernel
threads are the cores this process may use over the seeds
``DIFFBANK_THREADS`` runs at once, at least 1, so the two never
oversubscribe the cores; a product with fewer than ``_WORK_FLOOR`` stored
entries times columns runs as one block on the calling thread. Every
product bumps a module-level counter, on the calling thread, used by cost
assertions and stage reports.

``build_graph`` refuses a graph whose CSR arrays would not fit in physical
memory before it allocates them.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .errors import ConfigError, DataError

__all__ = [
    "Graph",
    "LabelVector",
    "SparseOperator",
    "build_graph",
    "degrees",
    "graph_hash",
    "make_operator",
    "reset_spmm_count",
    "seed_threads",
    "spmm",
    "spmm_call_count",
    "OPERATOR_KINDS",
]

OPERATOR_KINDS = ("dad", "da", "lap", "shifted")
# largest node count whose CSR sort key src * n + dst fits in int64
MAX_NODES = 3_037_000_499

_SPMM_CALLS = 0

# cores this process may use; kernel threads are these over seed threads
_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
    os.cpu_count() or 1)
# stored entries x width below which a product runs as one block on the
# calling thread. Legendre steps on 2 cores, 2 blocks against 1 (20 pairs
# each): 2 blocks won 1-6 pairs at 0.6M-3.8M, 8-12 at 5M-10M (a wash) and
# all 20 at 15M and 32M, where the operands outgrow the per-core cache.
_WORK_FLOOR = 10_000_000
_POOL = None
_POOL_LOCK = threading.Lock()  # seed threads may start the pool at once


def spmm_call_count() -> int:
    """Number of sparse-times-dense products performed since the last reset."""
    return _SPMM_CALLS


def reset_spmm_count() -> None:
    global _SPMM_CALLS
    _SPMM_CALLS = 0


def seed_threads() -> int:
    """Seeds run at once, from ``DIFFBANK_THREADS`` (default 1)."""
    raw = os.environ.get("DIFFBANK_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ConfigError(f"DIFFBANK_THREADS must be an integer, got {raw!r}")


def _physical_bytes() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_fits(nbytes: int, what: str) -> None:
    """Raise DataError when ``what`` needs more bytes than physical memory."""
    have = _physical_bytes()
    if nbytes > have:
        raise DataError(f"{what} needs {nbytes / 2**30:.1f} GiB, more than the "
                        f"{have / 2**30:.1f} GiB of physical memory")


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
    dropped, so ``n`` may not exceed ``MAX_NODES``. A graph whose CSR arrays
    would not fit in physical memory raises DataError before they exist.
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
    # row pointers and degree counts, then src, dst and sort key per entry
    entries = 2 * e.shape[0] + (n if add_self_loops else 0)
    check_fits(16 * (n + 1) + 24 * entries, f"a CSR graph of {n} nodes")
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
    accumulate in 64-bit arithmetic; ``_cuts`` are the row bounds of the
    kernel's blocks.
    """

    kind: str
    graph: Graph
    edge_weights: np.ndarray
    diag: np.ndarray
    _matrix: sp.csr_matrix = field(repr=False)
    _cuts: tuple = field(repr=False)

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
    return SparseOperator(kind=kind, graph=g, edge_weights=w32, diag=d32, _matrix=mat,
                          _cuts=_row_cuts(mat.indptr, max(1, _CORES // seed_threads())))


def _row_cuts(indptr: np.ndarray, blocks: int) -> tuple:
    """Row bounds of up to ``blocks`` non-empty blocks with about equal
    stored entries each."""
    n = indptr.size - 1
    inner = np.searchsorted(indptr, np.arange(1, blocks) * (indptr[-1] / blocks))
    return tuple(int(c) for c in np.unique(np.concatenate([[0], inner, [n]])))


def _pool() -> ThreadPoolExecutor:
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(max_workers=max(1, _CORES - 1),
                                       thread_name_prefix="diffbank-spmm")
    return _POOL


def spmm(op: SparseOperator, m: np.ndarray, *, out: np.ndarray | None = None,
         then=None) -> np.ndarray:
    """Multiply the operator against a dense (n, d) block.

    The product is computed entirely in float64 and cast back to the input
    dtype, so a float32 block still gets 64-bit partial sums. Increments
    the module SpMM counter by one regardless of block width.

    ``out``, a C-contiguous float64 (n, d) array apart from ``m``, receives
    the product and is returned as it is. ``then(lo, hi)`` runs on each row
    block right after its product rows are in ``out``, possibly on a pool
    thread, and may read and write rows lo:hi of the caller's arrays only;
    an exception it raises is raised here once every block has finished.
    """
    global _SPMM_CALLS
    x = np.asarray(m)
    if x.shape[0] != op.n:
        raise ValueError(f"operand has {x.shape[0]} rows, operator expects {op.n}")
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]
    dtype = x.dtype
    x = np.ascontiguousarray(x, dtype=np.float64)
    if out is None:
        out = np.empty(x.shape)
    elif (out.shape != x.shape or out.dtype != np.float64
          or not out.flags.c_contiguous or np.may_share_memory(out, x)):
        raise ValueError("out must be a C-contiguous float64 array shaped like "
                         "the operand and apart from it")
    mat = op._matrix

    def block(lo, hi):
        # out[lo:hi] = mat[lo:hi] @ x by the routine csr @ dense calls, on
        # zeroed rows and a view of indptr (absolute offsets into the rest)
        rows = out[lo:hi]
        rows.fill(0.0)
        _sparsetools.csr_matvecs(hi - lo, op.n, x.shape[1], mat.indptr[lo:hi + 1],
                                 mat.indices, mat.data, x.reshape(-1), rows.reshape(-1))
        if then is not None:
            then(lo, hi)

    cuts = op._cuts if mat.nnz * x.shape[1] >= _WORK_FLOOR else (0, op.n)
    futures = [_pool().submit(block, lo, hi) for lo, hi in zip(cuts[1:-1], cuts[2:])]
    try:
        block(cuts[0], cuts[1])
    finally:
        wait(futures)
    for f in futures:
        f.result()
    _SPMM_CALLS += 1
    res = out[:, 0] if squeeze else out
    return res if dtype == np.float64 else res.astype(dtype)
