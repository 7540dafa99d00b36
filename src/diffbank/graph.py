"""Immutable CSR graphs and degree-normalized sparse operators.

The graph container is a plain CSR index structure (no weights); an
operator derived from it holds edge weights plus a per-node diagonal term,
each rounded to float32. Four operator kinds are supported:

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

An operator stores its entries once, band-major: the columns are cut into
bands of ``_BAND_COLS``, and each band has a row pointer over all n rows
into its column indices and weights. That costs 12 bytes per entry (int32
index, float64 weight) plus 4 bytes per band and row, 5 MB at 100k nodes;
a graph of at most ``_BAND_COLS`` nodes is one band, plain CSR. Bands
widen so there are no more of them than stored entries per row, and at
least one: an operator holds at most max(n, entries) + 1 row pointers, so
it is O(n + entries) at any n. The bands are built in O(entries) by one
stable counting sort on (band, row). The operator as one scipy CSR
matrix, ``_matrix``, is derived from the bands on first use and cached:
tests, dense solvers on small graphs and tracing read it; products never
do.

Matrix products accumulate in 64-bit partial sums regardless of the input
dtype and reduce each output row over neighbors in ascending column order.
``spmm`` is the one propagation kernel. It runs each block of rows that
``make_operator`` cut (about equal stored entries each) on one persistent
thread pool, the calling thread taking the first block. A block computes
its rows one tile of ``_TILE_ROWS`` at a time: it zeroes the tile's output
rows, then adds band after band into them, in ascending band order, with
the routine ``csr @ dense`` calls. Only one band's rows of the operand are
read per pass, so they stay in cache, and each output row still starts
from 0 and adds its entries in ascending column order, the same
operations as one call on the whole matrix. So every product is the
serial whole-matrix product bit for bit at any band width, tile size and
thread count. Kernel threads are the cores this process may use; the pool
is the package's only one, and seeds run one after another, so products
never compete for the cores. A product with fewer than ``_WORK_FLOOR``
stored entries times columns runs as one block on the calling thread.
Every product bumps a module-level counter, on the calling thread, used by
cost assertions and stage reports.

``row_chunks`` runs the dense passes around the products (Krylov's
Lanczos arithmetic and Ritz slab fill, the calibration's probe dot
products) on the same pool. Its chunks are ``_CHUNK_ROWS`` rows each,
fixed by the node count alone, and the kernel's blocks share them out, so
a caller that adds per-chunk partials in chunk order gets the same numbers
at any thread count. Work the kernel would not split is one chunk, (0, n),
on the calling thread.

A three-term recurrence (the bank builders, the calibration's moments)
hands ``spmm`` a ``then`` instead of an output block: each block computes
a tile of its chunks' product rows into a tile-sized scratch it reuses,
and ``then`` gets each chunk's rows of it, in chunk order, and turns them
into the chunk's rows of the next term, written over the term before
last. So above ``_WORK_FLOOR`` a recurrence keeps its two latest terms and
one tile of product rows per block (8 MB at width 64), no (n, d) product;
below it, the one chunk's scratch is a whole (n, d) block.

``build_graph`` refuses a graph whose CSR arrays would not fit in physical
memory before it allocates them.
"""

import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

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
    "row_chunks",
    "spmm",
    "spmm_call_count",
    "OPERATOR_KINDS",
]

OPERATOR_KINDS = ("dad", "da", "lap", "shifted")
# largest node count whose CSR sort key src * n + dst fits in int64
MAX_NODES = 3_037_000_499

_SPMM_CALLS = 0

# cores this process may use, one kernel block each
_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
    os.cpu_count() or 1)
# stored entries x width below which a product runs as one block on the
# calling thread. Legendre steps on 2 cores, 2 blocks against 1 (20 pairs
# each): 2 blocks won 1-6 pairs at 0.6M-3.8M, 8-12 at 5M-10M (a wash) and
# all 20 at 15M and 32M, where the operands outgrow the per-core cache.
_WORK_FLOOR = 10_000_000
# rows per chunk of a ``row_chunks`` pass: a 64-wide float64 chunk is
# 512 KB, so a pass's residual and scratch rows stay in a core's L2
_CHUNK_ROWS = 1024
# columns per band of an operator's entries: a band's rows of a 64-wide
# float64 operand are 4 MB. Rows per tile of a product: a tile's 64-wide
# float64 output rows are 8 MB. Both measured best or tied at 100k nodes,
# width 64, 1 thread
_BAND_COLS = 8192
_TILE_ROWS = 16 * _CHUNK_ROWS
_POOL = None
_POOL_LOCK = threading.Lock()  # API callers on their own threads may start it at once


def spmm_call_count() -> int:
    """Number of sparse-times-dense products performed since the last reset."""
    return _SPMM_CALLS


def reset_spmm_count() -> None:
    global _SPMM_CALLS
    _SPMM_CALLS = 0


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
    """CSR adjacency structure. Neighbor lists are sorted and duplicate-free.

    ``row_ptr`` (n + 1 offsets) and ``col_idx`` (one column per stored
    entry) are read-only and share one integer dtype: int32 when ``n`` and
    the entry count are below 2^31, int64 past that. ``graph_hash`` hashes
    them as int64, so the dtype does not change a graph's hash.
    """

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


def csr_bytes(n: int, num_edges: int, add_self_loops: bool = False) -> int:
    """Bytes ``build_graph`` needs for ``num_edges`` input edges on ``n`` nodes:
    row pointers and degree counts, then src, dst and sort key per entry."""
    return 16 * (n + 1) + 24 * (2 * num_edges + (n if add_self_loops else 0))


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
    ``row_ptr`` and ``col_idx`` are int32 when ``n`` and the stored entry
    count are both below 2^31, as an operator's band indices are, and int64
    otherwise.
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
    check_fits(csr_bytes(n, e.shape[0], add_self_loops), f"a CSR graph of {n} nodes")
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

    itype = np.int32 if max(n, dst.size) < 2**31 else np.int64
    row_ptr = np.zeros(n + 1, dtype=itype)
    np.cumsum(np.bincount(src, minlength=n), out=row_ptr[1:])
    col_idx = dst.astype(itype, copy=False)
    row_ptr.setflags(write=False)
    col_idx.setflags(write=False)
    return Graph(n=n, row_ptr=row_ptr, col_idx=col_idx, undirected=undirected)


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
    """A graph operator on ``graph``.

    Its entries are the edge weights plus the per-node diagonal term that
    the adjacency part does not cover, each rounded to float32 and stored
    as float64 so products accumulate in 64-bit arithmetic. They are
    stored once, band-major: ``_idx`` and ``_w`` hold the column indices
    and weights of each column band in turn (``_BAND_COLS`` columns, or
    wider on a graph with few entries per row), row by row
    and in column order within a row, and ``_ptr[b * n:(b + 1) * n + 1]``
    is band b's row pointer into them. ``_cuts`` are the row bounds of the
    kernel's blocks.
    """

    kind: str
    graph: Graph
    _ptr: np.ndarray = field(repr=False)
    _idx: np.ndarray = field(repr=False)
    _w: np.ndarray = field(repr=False)
    _cuts: tuple = field(repr=False)

    @property
    def n(self) -> int:
        return self.graph.n

    @functools.cached_property
    def _matrix(self) -> sp.csr_matrix:
        """The operator as one CSR matrix with sorted rows, copied from the
        bands on first use."""
        n, nnz = self.n, self._w.size
        rows = np.empty(nnz, dtype=self._ptr.dtype)
        _sparsetools.expandptr(self._ptr.size - 1, self._ptr, rows)
        rows %= n
        # a stable counting sort by row keeps each row's bands in order
        ptr, idx, w = np.empty(n + 1, rows.dtype), np.empty(nnz, rows.dtype), np.empty(nnz)
        _sparsetools.coo_tocsr(n, n, nnz, rows, self._idx, self._w, ptr, idx, w)
        return sp.csr_matrix((w, idx, ptr), shape=(n, n))


def make_operator(g: Graph, kind: str) -> SparseOperator:
    """Construct one of the four degree-normalized operators on ``g``."""
    if kind not in OPERATOR_KINDS:
        raise ValueError(f"unknown operator kind {kind!r}, expected one of {OPERATOR_KINDS}")
    if kind != "da" and not g.undirected:
        raise ValueError(f"operator {kind!r} requires an undirected graph; "
                         "symmetrize at load time instead")

    deg = degrees(g).astype(np.float64)
    counts = np.diff(g.row_ptr)
    cols = g.col_idx

    with np.errstate(divide="ignore"):
        dinv = np.where(deg > 0, 1.0 / deg, 0.0)
        dinv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(deg), 0.0)

    if kind == "da":
        w = np.repeat(dinv, counts)
        diag = np.zeros(g.n)
    else:
        w = np.repeat(dinv_sqrt, counts)
        w *= dinv_sqrt[cols]
        if kind == "dad":
            diag = np.zeros(g.n)
        elif kind == "lap":
            np.negative(w, out=w)
            diag = np.where(deg > 0, 1.0, 0.0)
        else:  # shifted
            np.negative(w, out=w)
            diag = np.where(deg > 0, 0.0, -1.0)

    # weights are float32 values, rounded in place; the products' bits
    # depend on that rounding
    w[...] = w.astype(np.float32)
    d64 = diag.astype(np.float32).astype(np.float64)
    indptr, indices, data = g.row_ptr, cols, w
    del w
    if d64.any():
        # the sum merges each diagonal term into its row in column order,
        # adds it to a self-loop's weight and drops an entry that sums to 0
        mat = sp.csr_matrix((data, cols, g.row_ptr), shape=(g.n, g.n)) + sp.diags(
            d64, format="csr")
        mat.sort_indices()
        indptr, indices, data = mat.indptr, mat.indices, mat.data
        del mat
    return SparseOperator(kind, g, *_banded(indptr, indices, data), _row_cuts(indptr, _CORES))


def _banded(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray) -> tuple:
    """The band-major arrays of a CSR matrix with sorted rows.

    A stable counting sort of the entries by (band, row) puts each band's
    entries in row order, and each row's in column order as they were; its
    row pointer over the nb * n (band, row) pairs is every band's row
    pointer, one after another. Indices are int32 where they fit.
    """
    n, nnz = indptr.size - 1, data.size
    # bands of _BAND_COLS columns, widened so there are at most nnz // n
    # bands (one if nnz < n): nb * n row pointers never outnumber the entries
    cols = max(_BAND_COLS, -(-n // max(1, nnz // n)))
    nb = -(-n // cols)
    itype = np.int32 if max(nb * n + 1, nnz) < 2**31 else np.int64
    indices = indices.astype(itype, copy=False)
    key = np.empty(nnz, dtype=itype)
    _sparsetools.expandptr(n, indptr.astype(itype, copy=False), key)
    key += indices // cols * n
    ptr, idx, w = np.empty(nb * n + 1, itype), np.empty(nnz, itype), np.empty(nnz)
    _sparsetools.coo_tocsr(nb * n, n, nnz, key, indices, data, ptr, idx, w)
    for a in (ptr, idx, w):
        a.setflags(write=False)
    return ptr, idx, w


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


def _threaded(op: SparseOperator, width: int) -> bool:
    """Whether work on ``width`` columns is big enough to split over blocks."""
    return op._w.size * width >= _WORK_FLOOR


def _run_blocks(cuts: tuple, block) -> None:
    """``block(lo, hi)`` per pair of consecutive cuts, all but the first on
    the pool; an exception is raised once every block has finished."""
    futures = [_pool().submit(block, lo, hi) for lo, hi in zip(cuts[1:-1], cuts[2:])]
    try:
        block(cuts[0], cuts[1])
    finally:
        wait(futures)
    for f in futures:
        f.result()


def _chunked(op: SparseOperator, width: int, fn, cols: int, fill=None) -> list:
    """``row_chunks`` with ``fn(lo, hi, rows)``, where ``rows`` is a float64
    scratch of hi - lo rows and ``cols`` columns. Each block takes its
    chunks a tile of ``_TILE_ROWS`` rows at a time in a scratch it reuses;
    ``fill(lo, hi, rows)``, if given, first fills the tile's rows, then
    ``fn`` gets each chunk's rows of them."""
    n = op.n
    if not _threaded(op, width):
        rows = np.empty((n, cols))
        if fill is not None:
            fill(0, n, rows)
        return [fn(0, n, rows)]
    results = [None] * -(-n // _CHUNK_ROWS)
    per_tile = max(1, _TILE_ROWS // _CHUNK_ROWS)

    def block(lo, hi):
        scratch = np.empty((min(per_tile * _CHUNK_ROWS, n), cols))
        last = -(-hi // _CHUNK_ROWS)
        for t in range(-(-lo // _CHUNK_ROWS), last, per_tile):
            t_end = min(t + per_tile, last)
            t_lo, t_hi = t * _CHUNK_ROWS, min(t_end * _CHUNK_ROWS, n)
            if fill is not None:
                fill(t_lo, t_hi, scratch[:t_hi - t_lo])
            for i in range(t, t_end):
                start = i * _CHUNK_ROWS
                stop = min(start + _CHUNK_ROWS, n)
                results[i] = fn(start, stop, scratch[start - t_lo:stop - t_lo])

    _run_blocks(op._cuts, block)
    return results


def row_chunks(op: SparseOperator, width: int, fn) -> list:
    """Run ``fn(lo, hi)`` over fixed row chunks; return its results in order.

    Chunks are ``_CHUNK_ROWS`` rows each, the last one shorter, so their
    bounds depend on ``op.n`` only and a reduction summed over the results
    in order gives the same numbers at any thread count. Each kernel block
    runs the chunks that start in its rows, one after another; the calling
    thread takes the first block. Work on ``width`` columns that ``spmm``
    would run as one block runs as the one chunk (0, n) on the calling
    thread. ``fn`` may read any rows but write rows lo:hi only.
    """
    return _chunked(op, width, lambda lo, hi, _: fn(lo, hi), 0)


def spmm(op: SparseOperator, m: np.ndarray, *, out: np.ndarray | None = None,
         then=None):
    """Multiply the operator against a dense (n, d) block.

    The product is computed entirely in float64 and cast back to the input
    dtype, so a float32 block still gets 64-bit partial sums. Increments
    the module SpMM counter by one regardless of block width.

    ``out``, a C-contiguous float64 (n, d) array apart from ``m``, receives
    the product and is returned as it is.

    With ``then``, no (n, d) product is made: the product runs over the
    chunks of ``row_chunks``, each chunk's rows land in a float64 scratch
    that its kernel block reuses, and ``then(lo, hi, rows)`` consumes them,
    possibly on a pool thread. ``then`` may change ``rows`` and write rows
    lo:hi of arrays other than ``m``, which every chunk's product reads
    whole. ``spmm`` returns the results of ``then`` in chunk order; an
    exception it raises is raised here once every block has finished.
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
    width = x.shape[1]

    def product(lo, hi, rows):
        # rows = op[lo:hi] @ x by the routine csr @ dense calls, a tile at a
        # time, band after band on the tile's zeroed rows: each row adds its
        # entries in column order, as one call on the whole matrix would.
        # Row pointers are views (absolute offsets into the entries)
        for t in range(lo, hi, _TILE_ROWS):
            stop = min(t + _TILE_ROWS, hi)
            tile = rows[t - lo:stop - lo]
            tile.fill(0.0)
            for b in range(0, op._ptr.size - 1, op.n):
                _sparsetools.csr_matvecs(stop - t, op.n, width, op._ptr[b + t:b + stop + 1],
                                         op._idx, op._w, x.reshape(-1), tile.reshape(-1))

    if then is not None:
        if out is not None:
            raise ValueError("out and then are exclusive")
        results = _chunked(op, width, then, width, fill=product)
        _SPMM_CALLS += 1
        return results

    if out is None:
        out = np.empty(x.shape)
    elif (out.shape != x.shape or out.dtype != np.float64
          or not out.flags.c_contiguous or np.may_share_memory(out, x)):
        raise ValueError("out must be a C-contiguous float64 array shaped like "
                         "the operand and apart from it")
    _run_blocks(op._cuts if _threaded(op, width) else (0, op.n),
                lambda lo, hi: product(lo, hi, out[lo:hi]))
    _SPMM_CALLS += 1
    res = out[:, 0] if squeeze else out
    return res if dtype == np.float64 else res.astype(dtype)
