"""Per-channel Lanczos factorizations and Ritz-component feature banks.

Each nonzero feature column x_c seeds its own Krylov space of the shifted
operator. The c nonzero columns share one float64 basis tensor Q of shape
(order, n, c), and a Lanczos step is whole-block arithmetic on Q[j]: one
sparse product over the live columns, all alphas and betas at once, and two
batched full reorthogonalization passes against Q[:j+1]. A column whose
residual norm falls below ``BREAKDOWN_TOL`` (an invariant subspace was
found) leaves the live set with zero basis vectors after it; the others
keep iterating. A Krylov bank holds that tensor, 8 * order * n * c bytes,
plus its float32 slabs: slab k is Q contracted with component k's
(order, c) coefficients, written straight into the (n, d) slab.
Per-channel objects are views of the tensor.

The small tridiagonal eigenproblems are solved by an implicit-shift QL
sweep written out here rather than delegated, so the deterministic sign
convention and the failure mode are pinned down: eigenvalues ascend,
each eigenvector's first nonzero entry is positive, and more than
``MAX_QL_SWEEPS`` rotations on one eigenvalue raises NumericalError.

From the factorization Q_c T_c Q_c^T the Ritz decomposition is

    values   lam_{c,i}   (eigenvalues of T_c, ascending)
    vectors  y_{c,i} = Q_c u_{c,i}
    weights  w_{c,i} = ||x_c|| u_{c,i}[0]
    components z_{c,i} = w_{c,i} y_{c,i}

and the components sum to x_c exactly in exact arithmetic because the
first Lanczos vector is x_c / ||x_c||. Components with tiny weight are
kept; dropping them would silently break that reconstruction.
"""

from dataclasses import dataclass

import numpy as np

from .banks import HopBank, _check_budget, _check_slab
from .errors import ConfigError
from .graph import SparseOperator, spmm

__all__ = [
    "ChannelFactorization",
    "LanczosFactorization",
    "RitzBank",
    "batched_lanczos",
    "tridiag_eig",
    "ritz_components",
    "ritz_bank",
    "ritz_bank_as_hopbank",
    "ritz_triples",
]

MAX_LANCZOS_STEPS = 15
MAX_QL_SIZE = 64
MAX_QL_SWEEPS = 50
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

    @property
    def width(self) -> int:
        return int(self.ids.size + self.skipped.size)

    @property
    def cols(self):
        """Index of the basis channels among the feature columns."""
        return self.ids if self.skipped.size else slice(None)

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

    One sparse product per step over the live columns, ``order`` products
    total unless every column breaks down first. Each step re-projects the
    residuals against the whole basis twice; at the fixed budget of 15
    steps that full reorthogonalization costs little, and ``full`` is the
    only ``reorth`` mode.
    """
    if op.kind != "shifted":
        raise ValueError(f"Lanczos banks require the 'shifted' operator, got {op.kind!r}")
    if order < 1:
        raise ConfigError("Lanczos order must be >= 1")
    if order > MAX_LANCZOS_STEPS:
        raise ConfigError(f"Lanczos order {order} exceeds the fixed hop budget "
                          f"of {MAX_LANCZOS_STEPS}")
    if reorth != "full":
        raise ConfigError(f"unknown reorthogonalization mode {reorth!r}")
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[0] != op.n:
        raise ValueError("features must be an (n, d) matrix matching the operator")

    norms = np.linalg.norm(x.astype(np.float64), axis=0)
    skipped = np.nonzero(norms == 0.0)[0]
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
        # a view while every column is live, a gathered copy after a breakdown
        cols = slice(None) if live.size == c else live
        qj = q[j][:, cols]
        w = spmm(op, qj)
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
        keep = b >= BREAKDOWN_TOL
        betas[j, cols] = np.where(keep, b, 0.0)
        q[j + 1][:, cols] = r / np.where(keep, b, np.inf)
        live = live[keep]

    return LanczosFactorization(order=order, q=q, alphas=alphas, betas=betas,
                                steps=steps, ids=ids, x_norms=norms, skipped=skipped)


def tridiag_eig(diag, offdiag, max_sweeps: int = MAX_QL_SWEEPS):
    """Eigendecomposition of a symmetric tridiagonal matrix by implicit QL.

    Returns (values, vectors) in float64 with values ascending and each
    vector column sign-fixed so its first nonzero entry is positive.
    Limited to MAX_QL_SIZE rows; raises NumericalError when a single
    eigenvalue refuses to deflate within ``max_sweeps`` sweeps.
    """
    d = np.array(diag, dtype=np.float64, copy=True)
    n = d.shape[0]
    if n == 0:
        raise ValueError("empty tridiagonal matrix")
    if n > MAX_QL_SIZE:
        raise ConfigError(f"tridiagonal solver limited to {MAX_QL_SIZE} rows, got {n}")
    off = np.asarray(offdiag, dtype=np.float64)
    if off.shape[0] != n - 1:
        raise ValueError(f"off-diagonal must have {n - 1} entries, got {off.shape[0]}")
    e = np.zeros(n, dtype=np.float64)
    e[: n - 1] = off
    z = np.eye(n, dtype=np.float64)
    eps = np.finfo(np.float64).eps

    for l in range(n):
        for sweep in range(max_sweeps + 1):
            m = l
            while m < n - 1 and abs(e[m]) > eps * (abs(d[m]) + abs(d[m + 1])):
                m += 1
            if m == l:
                break
            if sweep == max_sweeps:
                raise NumericalError("tridiagonal QL failed to converge")
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = np.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + (r if g >= 0.0 else -r))
            s = c = 1.0
            p = 0.0
            underflow = False
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = np.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    underflow = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                col = z[:, i + 1].copy()
                z[:, i + 1] = s * z[:, i] + c * col
                z[:, i] = c * z[:, i] - s * col
            if not underflow:
                d[l] -= p
                e[l] = g
                e[m] = 0.0

    order = np.argsort(d, kind="stable")
    d = d[order]
    z = z[:, order]
    for j in range(n):
        col = z[:, j]
        big = np.max(np.abs(col))
        nz = np.nonzero(np.abs(col) > 1e-12 * big)[0]
        if nz.size and col[nz[0]] < 0.0:
            z[:, j] = -col
    return d, z




def _combine(q: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_j q[j] * coeffs[j] per channel, (m, n, c) x (m, c) -> (n, c); a
    size-1 channel axis of ``q`` broadcasts over the columns of ``coeffs``."""
    return np.einsum("jnc,jc->nc", q, coeffs)


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


@dataclass(frozen=True)
class RitzBank:
    """Ritz data of every channel; component k of basis channel i is
    sum_j fact.q[j, :, i] * coeffs[k, j, i]. Entries past a channel's steps
    are zero."""

    n: int
    fact: LanczosFactorization
    values: np.ndarray   # (order, c), ascending within each channel's steps
    weights: np.ndarray  # (order, c)
    coeffs: np.ndarray   # (order, order, c): component, basis vector, channel

    @property
    def width(self) -> int:
        return self.fact.width

    @property
    def order(self) -> int:
        return self.fact.order

    @property
    def channels(self) -> list:
        """Per-channel Ritz data with explicit (n, m) component matrices."""
        return [ritz_components(cf) for cf in self.fact.channels]


def ritz_components(fact: ChannelFactorization) -> RitzChannel:
    """Ritz values, weights and components for one factorized channel."""
    values, weights, coeffs = _ritz(fact.alphas, fact.betas, fact.x_norm)
    components = _combine(fact.q.T[:, :, None], coeffs.T)
    return RitzChannel(channel=fact.channel, values=values,
                       weights=weights, components=components)


def ritz_bank(fact: LanczosFactorization, n: int | None = None) -> RitzBank:
    """Solve each channel's tridiagonal eigenproblem into coefficient tensors."""
    if n is None:
        if not fact.ids.size:
            raise ValueError("cannot infer node count from an all-zero feature matrix")
        n = fact.q.shape[1]
    values = np.zeros(fact.alphas.shape)
    weights = np.zeros(fact.alphas.shape)
    coeffs = np.zeros((fact.order,) + fact.alphas.shape)
    for i, cf in enumerate(fact.channels):
        m = cf.steps
        values[:m, i], weights[:m, i], coeffs[:m, :m, i] = _ritz(
            cf.alphas, cf.betas, cf.x_norm)
    return RitzBank(n=n, fact=fact, values=values, weights=weights, coeffs=coeffs)


def ritz_bank_as_hopbank(rb: RitzBank, hops: int, raw_hop0: np.ndarray | None = None):
    """Lay Ritz components out as hop slabs.

    Slab k carries each channel's (k+1)-th ascending component, so the
    K+1 slabs jointly hold components 1..K+1 and summing them channel-wise
    reconstructs the input when the order equals K+1. Passing ``raw_hop0``
    (the pipeline default) puts the raw features in slab 0 instead, so the
    bank keeps the unblended 0-hop contract of staged training; omit it
    only for reconstruction diagnostics. Channels that broke down early pad
    their missing slabs with zeros; zero channels stay zero everywhere. The
    provenance lists both, as ``breakdown_channels`` and ``skipped_channels``.
    A slab that is not finite in float32 raises NumericalError.
    """
    _check_budget(hops)
    if hops + 1 > rb.order:
        raise ConfigError(f"bank needs {hops + 1} components per channel but the "
                          f"factorization order is {rb.order}")
    if raw_hop0 is not None and np.shape(raw_hop0) != (rb.n, rb.width):
        raise ValueError("raw hop-0 features do not match the bank shape")
    slabs = np.zeros((hops + 1, rb.n, rb.width), dtype=np.float32)
    for k in range(hops + 1):
        if k == 0 and raw_hop0 is not None:
            slabs[0] = raw_hop0
            continue
        slabs[k][:, rb.fact.cols] = _combine(rb.fact.q, rb.coeffs[k])
        _check_slab(slabs, k, "krylov")
    prov = {"basis": "krylov", "operator": "shifted", "hops": hops,
            "order": rb.order, "raw_hop0": raw_hop0 is not None,
            "skipped_channels": rb.fact.skipped.tolist(),
            "breakdown_channels": rb.fact.ids[rb.fact.steps < rb.order].tolist()}
    return HopBank(hops=hops, slabs=slabs, provenance=prov)


def ritz_triples(rb: RitzBank) -> list:
    """Flat (channel, value, weight) records for the diagnostics sidecar."""
    fact = rb.fact
    return [{"channel": int(c), "value": float(v), "weight": float(w)}
            for i, (c, m) in enumerate(zip(fact.ids, fact.steps))
            for v, w in zip(rb.values[:m, i], rb.weights[:m, i])]
