"""Per-channel Lanczos factorizations and Ritz-component feature banks.

Each nonzero feature column x_c seeds its own Krylov space of the shifted
operator. The c nonzero columns share one float64 basis tensor Q of shape
(order, n, c), and a Lanczos step is whole-block arithmetic on Q[j]: one
sparse product over the c columns, all alphas and betas at once, and two
batched full reorthogonalization passes against Q[:j+1]. A column whose
residual norm falls below ``BREAKDOWN_TOL`` (an invariant subspace was
found) stays in the block with zero basis vectors, alphas and betas to the
end; the others keep iterating. A Krylov bank's build holds that tensor
besides its float32 slabs (``experiment.memory_plan`` counts both): slab
0 is the raw features and slab k >= 1 is Q contracted with component k's
(order, c) coefficients, written straight into the (n, d) slab.
Per-channel objects are views of the tensor.

Everything but the product runs as ``graph.row_chunks`` passes over fixed
row chunks on the kernel's threads: the column norms, then per step the
alphas; the three-term update with the first projection onto the basis;
the first subtraction with the second projection; the second subtraction
with the norm partials; and the normalization. Each pass works on a
chunk's rows while they are in cache, and reductions add the chunks'
partials in chunk order, so a factorization is the same at any thread
count; a build too small to split is one chunk, bit for bit the plain
whole-array expressions. The residual is always built in Q[j+1], and one
(n, c) block on a mapping of its own holds each step's product and then
serves as the passes' scratch rows, so a build with no zero column
allocates no other temporary of that size.
The slabs are filled in one pass that writes every slab's rows of a chunk
from one read of Q's rows.

The small tridiagonal eigenproblems go to LAPACK through
``scipy.linalg.eigh_tridiagonal``, behind a deterministic sign convention:
eigenvalues ascend, each eigenvector's first nonzero entry is positive,
and a matrix LAPACK cannot solve raises NumericalError.

From the factorization Q_c T_c Q_c^T the Ritz decomposition is

    values   lam_{c,i}   (eigenvalues of T_c, ascending)
    vectors  y_{c,i} = Q_c u_{c,i}
    weights  w_{c,i} = ||x_c|| u_{c,i}[0]
    components z_{c,i} = w_{c,i} y_{c,i}

and the components sum to x_c exactly in exact arithmetic because the
first Lanczos vector is x_c / ||x_c||. Components with tiny weight are
kept; dropping them would silently break that reconstruction.
"""

import functools
import mmap
from dataclasses import dataclass, field

import numpy as np

from .banks import HopBank, _check_budget, _check_slab, _slabs
from .errors import ConfigError, NumericalError
from .graph import SparseOperator, row_chunks, spmm

__all__ = [
    "ChannelFactorization",
    "LanczosFactorization",
    "batched_lanczos",
    "tridiag_eig",
    "ritz_components",
    "ritz_bank",
    "ritz_bank_as_hopbank",
]

MAX_LANCZOS_STEPS = 15
# Lanczos vectors have unit norm and the shifted operator norm <= 1, so a
# residual norm is on an absolute scale, whatever the input column's norm
BREAKDOWN_TOL = 1e-10


@dataclass(frozen=True)
class ChannelFactorization:
    """Lanczos data for one feature column: S Q ~ Q T with T tridiagonal."""

    channel: int
    q: np.ndarray        # (n, steps) orthonormal basis, float64
    alphas: np.ndarray   # (steps,) T diagonal
    betas: np.ndarray    # (steps - 1,) T off-diagonal
    x_norm: float
    breakdown: bool

    @property
    def steps(self) -> int:
        return int(self.alphas.shape[0])


@dataclass(frozen=True)
class LanczosFactorization:
    """All channels' Lanczos data; entries past a channel's steps are zero."""

    order: int
    q: np.ndarray        # (order, n, c) float64 basis of the nonzero columns
    alphas: np.ndarray   # (order, c) T diagonals
    betas: np.ndarray    # (order - 1, c) T off-diagonals
    steps: np.ndarray    # (c,) steps taken; fewer than order means breakdown
    ids: np.ndarray      # (c,) feature column of each basis channel
    x_norms: np.ndarray  # (c,)
    skipped: np.ndarray  # zero-norm channel ids
    op: SparseOperator = field(repr=False)  # the operator factorized

    @property
    def width(self) -> int:
        return int(self.ids.size + self.skipped.size)

    @property
    def channels(self) -> list:
        """Per-channel views into the basis tensor, in column order."""
        return [ChannelFactorization(
            channel=int(c), q=self.q[:m, :, i].T, alphas=self.alphas[:m, i],
            betas=self.betas[:m - 1, i], x_norm=float(self.x_norms[i]),
            breakdown=bool(m < self.order))
            for i, (c, m) in enumerate(zip(self.ids, self.steps))]


def batched_lanczos(op: SparseOperator, x: np.ndarray, order: int,
                    reorth: str = "full") -> LanczosFactorization:
    """Run ``order`` Lanczos steps on every nonzero feature column.

    One sparse product per step over the c nonzero columns, ``order``
    products total unless every column breaks down first; ``steps`` counts
    a column's steps until its breakdown. Each step re-projects the
    residuals against the whole basis twice; at the fixed budget of 15
    steps that full reorthogonalization costs little, and ``full`` is the
    only ``reorth`` mode. The rest of a step runs in four row-chunked passes
    after the alphas' (see the module docstring).
    """
    if op.kind != "shifted":
        raise ValueError(f"Lanczos banks require the 'shifted' operator, got {op.kind!r}")
    if order < 1:
        raise ConfigError("Lanczos order must be >= 1")
    if order > MAX_LANCZOS_STEPS:
        raise ConfigError(f"Lanczos order {order} exceeds the fixed step budget "
                          f"of {MAX_LANCZOS_STEPS}")
    if reorth != "full":
        raise ConfigError(f"unknown reorthogonalization mode {reorth!r}")
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[0] != op.n:
        raise ValueError("features must be an (n, d) matrix matching the operator")
    def squares(lo, hi):
        # column sums of squares, without a whole float64 copy of x
        rows = x[lo:hi].astype(np.float64)
        return np.add.reduce(np.multiply(rows, rows, out=rows), axis=0)

    norms = np.sqrt(_summed(row_chunks(op, x.shape[1], squares)))
    skipped = np.nonzero(norms == 0.0)[0]
    ids = np.nonzero(norms > 0.0)[0]
    norms = norms[ids]
    n, c = op.n, ids.size
    q = np.zeros((order, n, c))
    alphas = np.zeros((order, c))
    betas = np.zeros((order - 1, c))
    steps = np.zeros(c, dtype=np.int64)
    np.divide(x[:, ids] if skipped.size else x, norms, out=q[0])
    # each step's product, then scratch rows for the passes after it, on a
    # mapping of its own: freed, it goes back to the system instead of
    # staying in the heap under the slabs the Ritz components fill next
    w = np.frombuffer(mmap.mmap(-1, 8 * max(n * c, 1)), np.float64, n * c).reshape(n, c)

    live = np.ones(c, dtype=bool)
    for j in range(order):
        if not live.any():
            break
        qj = q[j]
        spmm(op, qj, out=w)
        a = _summed(row_chunks(op, c, lambda lo, hi: np.einsum(
            "nc,nc->c", qj[lo:hi], w[lo:hi])))
        alphas[j] = a
        steps += live
        if j == order - 1:
            break
        r = q[j + 1]  # the residual, built in place

        def update(lo, hi):
            # r = w - a q_j - b q_{j-1}, then the first projection onto the basis
            rr, ww = r[lo:hi], w[lo:hi]
            np.subtract(ww, np.multiply(a, qj[lo:hi], out=rr), out=rr)
            if j:
                rr -= np.multiply(betas[j - 1], q[j - 1, lo:hi], out=ww)
            return np.einsum("knc,nc->kc", q[:j + 1, lo:hi], rr)

        def project(h, last):
            def chunk(lo, hi):
                # r -= basis h, then the next projection or the norm partials
                rr, ww, basis = r[lo:hi], w[lo:hi], q[:j + 1, lo:hi]
                rr -= np.einsum("knc,kc->nc", basis, h, out=ww)
                if last:
                    return np.add.reduce(np.multiply(rr, rr, out=ww), axis=0)
                return np.einsum("knc,nc->kc", basis, rr)
            return _summed(row_chunks(op, c, chunk))

        h = _summed(row_chunks(op, c, update))
        b = np.sqrt(project(project(h, False), True))
        keep = b >= BREAKDOWN_TOL
        betas[j] = np.where(keep, b, 0.0)
        # a broken-down column's residual over inf is its zero next vector
        scale = np.where(keep, b, np.inf)
        row_chunks(op, c, lambda lo, hi: np.divide(r[lo:hi], scale, out=r[lo:hi]))
        live &= keep

    return LanczosFactorization(order=order, q=q, alphas=alphas, betas=betas,
                                steps=steps, ids=ids, x_norms=norms, skipped=skipped,
                                op=op)


def _summed(parts: list):
    """Per-chunk partials of a reduction, added in chunk order."""
    return functools.reduce(np.add, parts)


def tridiag_eig(diag, offdiag):
    """Eigendecomposition of a symmetric tridiagonal matrix.

    Returns (values, vectors) in float64 with values ascending and each
    vector column sign-fixed so its first nonzero entry is positive. Raises
    NumericalError when the matrix is not finite or LAPACK fails on it.
    """
    # imported on first use: scipy.linalg adds about 75 ms to a cold start
    from scipy.linalg import LinAlgError, eigh_tridiagonal

    d = np.asarray(diag, dtype=np.float64)
    n = d.shape[0]
    if n == 0:
        raise ValueError("empty tridiagonal matrix")
    off = np.asarray(offdiag, dtype=np.float64)
    if off.shape[0] != n - 1:
        raise ValueError(f"off-diagonal must have {n - 1} entries, got {off.shape[0]}")
    if not (np.isfinite(d).all() and np.isfinite(off).all()):
        raise NumericalError("tridiagonal matrix is not finite")
    try:
        d, z = eigh_tridiagonal(d, off, check_finite=False)
    except LinAlgError as exc:
        raise NumericalError(f"tridiagonal eigensolver failed: {exc}") from exc
    mag = np.abs(z)
    first = np.argmax(mag > 1e-12 * mag.max(axis=0), axis=0)
    z *= np.where(z[first, np.arange(n)] < 0.0, -1.0, 1.0)
    return d, z


def _ritz(alphas, betas, x_norm):
    """Ritz values, weights and the (component, basis vector) coefficients."""
    values, u = tridiag_eig(alphas, betas)
    weights = x_norm * u[0, :]
    return values, weights, (u * weights).T


@dataclass(frozen=True)
class RitzChannel:
    channel: int
    values: np.ndarray      # (m_c,) ascending
    weights: np.ndarray     # (m_c,)
    components: np.ndarray  # (n, m_c) float64, z_i columns


def ritz_components(fact: ChannelFactorization) -> RitzChannel:
    """Ritz values, weights and components for one factorized channel."""
    values, weights, coeffs = _ritz(fact.alphas, fact.betas, fact.x_norm)
    # sum_j q_j coeffs[:, j], with one channel axis broadcast over components
    components = np.einsum("jnc,jc->nc", fact.q.T[:, :, None], coeffs.T)
    return RitzChannel(channel=fact.channel, values=values,
                       weights=weights, components=components)


def ritz_bank(fact: LanczosFactorization) -> np.ndarray:
    """Solve each channel's tridiagonal eigenproblem into an (order, order, c)
    coefficient tensor: component k of basis channel i is
    sum_j fact.q[j, :, i] * coeffs[k, j, i]. Entries past a channel's steps
    are zero."""
    coeffs = np.zeros((fact.order,) + fact.alphas.shape)
    for i, cf in enumerate(fact.channels):
        m = cf.steps
        coeffs[:m, :m, i] = _ritz(cf.alphas, cf.betas, cf.x_norm)[2]
    return coeffs


def ritz_bank_as_hopbank(fact: LanczosFactorization, hops: int, raw_hop0: np.ndarray, *,
                         out: np.ndarray | None = None):
    """Lay the Ritz components of ``fact`` out as hop slabs behind the raw features.

    Slab 0 is ``raw_hop0``, the input features, as in every polynomial
    bank, so the bank keeps the unblended 0-hop contract of staged training.
    Slab k >= 1 carries each channel's (k+1)-th ascending component, from
    the coefficients of ``ritz_bank``.
    Channels that broke down early pad their missing slabs with zeros; zero
    channels stay zero everywhere. The provenance lists both, as
    ``breakdown_channels`` and ``skipped_channels``. A slab that is not
    finite in float32 raises NumericalError. The slabs are filled in one
    row-chunked pass; nothing is summed across rows, so they do not depend
    on the chunking. ``out``, a C-contiguous float32 (hops + 1, n, d)
    array, gets the slabs instead of new ones, with the same bytes; its
    slab 0 may be ``raw_hop0`` itself, which is then left as it is.
    """
    _check_budget(hops)
    if hops + 1 > fact.order:
        raise ConfigError(f"bank needs {hops + 1} components per channel but the "
                          f"factorization order is {fact.order}")
    if np.shape(raw_hop0) != (fact.op.n, fact.width):
        raise ValueError("raw hop-0 features do not match the bank shape")
    coeffs = ritz_bank(fact)
    slabs = _slabs(out, hops, np.asarray(raw_hop0))
    # the fill writes every basis channel; a skipped one is zero in each slab
    slabs[1:, :, fact.skipped] = 0.0
    cols = fact.ids if fact.skipped.size else slice(None)

    def fill(lo, hi):
        # every slab's rows lo:hi from one read of the basis rows
        q = fact.q[:, lo:hi]
        part = np.empty(q.shape[1:])
        for k in range(1, hops + 1):
            slabs[k, lo:hi][:, cols] = np.einsum("jnc,jc->nc", q, coeffs[k], out=part)
            _check_slab(slabs, k, "krylov", slice(lo, hi))

    row_chunks(fact.op, fact.ids.size, fill)
    prov = {"basis": "krylov", "operator": "shifted", "hops": hops,
            "order": fact.order, "skipped_channels": fact.skipped.tolist(),
            "breakdown_channels": fact.ids[fact.steps < fact.order].tolist()}
    return HopBank(hops=hops, slabs=slabs, provenance=prov)
