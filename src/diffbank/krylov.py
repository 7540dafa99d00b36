"""Per-channel Lanczos factorizations and Ritz-component feature banks.

Each feature column x_c seeds its own Krylov space of the shifted operator.
The columns advance in lockstep so that every Lanczos step issues a single
sparse product over the still-active columns; a column drops out of the
batch when its residual collapses (an invariant subspace was found) but the
others keep iterating.

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
from typing import Callable

import numpy as np

from .errors import ConfigError, NumericalError
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
    "apply_spectral_response",
    "ritz_triples",
]

MAX_LANCZOS_STEPS = 15
MAX_QL_SIZE = 64
MAX_QL_SWEEPS = 50
BREAKDOWN_RTOL = 1e-10


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
    order: int
    channels: list
    skipped: np.ndarray  # zero-norm channel ids

    @property
    def width(self) -> int:
        return len(self.channels) + int(self.skipped.size)


def batched_lanczos(op: SparseOperator, x: np.ndarray, order: int,
                    reorth: str = "full",
                    breakdown_rtol: float = BREAKDOWN_RTOL) -> LanczosFactorization:
    """Run ``order`` Lanczos steps on every nonzero feature column.

    One sparse product per step over the active columns, ``order`` products
    total unless every column breaks down first. Each step re-projects the
    residual against the channel's whole basis twice; at the fixed budget
    of 15 steps that full reorthogonalization costs little, and ``full`` is
    the only ``reorth`` mode.
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

    n, d = x.shape
    norms = np.linalg.norm(x.astype(np.float64), axis=0)
    skipped = np.nonzero(norms == 0.0)[0]
    active = [c for c in range(d) if norms[c] > 0.0]

    state = {}
    for c in active:
        q1 = x[:, c].astype(np.float64) / norms[c]
        state[c] = {
            "basis": [q1],
            "alphas": [],
            "betas": [],
            "q_prev": np.zeros(n),
            "beta_prev": 0.0,
            "breakdown": False,
        }

    live = list(active)
    for _ in range(order):
        if not live:
            break
        block = np.column_stack([state[c]["basis"][-1] for c in live])
        w = spmm(op, block)
        next_live = []
        for j, c in enumerate(live):
            st = state[c]
            qj = st["basis"][-1]
            wj = w[:, j]
            aj = float(qj @ wj)
            r = wj - aj * qj - st["beta_prev"] * st["q_prev"]
            st["alphas"].append(aj)
            if len(st["alphas"]) == order:
                continue
            qmat = np.column_stack(st["basis"])
            r -= qmat @ (qmat.T @ r)
            r -= qmat @ (qmat.T @ r)
            bj = float(np.linalg.norm(r))
            if bj < breakdown_rtol * norms[c]:
                st["breakdown"] = True
                continue
            st["betas"].append(bj)
            st["q_prev"] = qj
            st["beta_prev"] = bj
            st["basis"].append(r / bj)
            next_live.append(c)
        live = next_live

    channels = []
    for c in active:
        st = state[c]
        channels.append(ChannelFactorization(
            channel=c,
            q=np.column_stack(st["basis"]),
            alphas=np.asarray(st["alphas"], dtype=np.float64),
            betas=np.asarray(st["betas"], dtype=np.float64),
            x_norm=float(norms[c]),
            breakdown=st["breakdown"],
        ))
    return LanczosFactorization(order=order, channels=channels, skipped=skipped)


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


@dataclass(frozen=True)
class RitzChannel:
    channel: int
    values: np.ndarray      # (m_c,) ascending
    weights: np.ndarray     # (m_c,)
    components: np.ndarray  # (n, m_c) float64, z_i columns


@dataclass(frozen=True)
class RitzBank:
    n: int
    width: int
    order: int
    channels: list
    skipped: np.ndarray


def ritz_components(fact: ChannelFactorization) -> RitzChannel:
    """Ritz values, weights and components for one factorized channel."""
    values, u = tridiag_eig(fact.alphas, fact.betas)
    weights = fact.x_norm * u[0, :]
    components = fact.q @ (u * weights)
    return RitzChannel(channel=fact.channel, values=values,
                       weights=weights, components=components)


def ritz_bank(fact: LanczosFactorization, n: int | None = None) -> RitzBank:
    channels = [ritz_components(cf) for cf in fact.channels]
    if n is None:
        if not channels:
            raise ValueError("cannot infer node count from an all-zero feature matrix")
        n = channels[0].components.shape[0]
    return RitzBank(n=n, width=fact.width, order=fact.order,
                    channels=channels, skipped=fact.skipped)


def ritz_bank_as_hopbank(rb: RitzBank, hops: int, raw_hop0: np.ndarray | None = None):
    """Lay Ritz components out as hop slabs.

    Slab k carries each channel's (k+1)-th ascending component, so the
    K+1 slabs jointly hold components 1..K+1 and summing them channel-wise
    reconstructs the input when the order equals K+1. Passing ``raw_hop0``
    (the pipeline default) then overwrites slab 0 with the raw features so
    the bank keeps the unblended 0-hop contract of staged training; omit it
    only for reconstruction diagnostics. Channels that broke down early pad
    their missing slabs with zeros; zero channels stay zero everywhere.
    """
    from .banks import HopBank, _check_budget

    _check_budget(hops)
    if hops + 1 > rb.order:
        raise ConfigError(f"bank needs {hops + 1} components per channel but the "
                          f"factorization order is {rb.order}")
    slabs = np.zeros((hops + 1, rb.n, rb.width), dtype=np.float32)
    for rc in rb.channels:
        take = min(hops + 1, rc.components.shape[1])
        slabs[:take, :, rc.channel] = rc.components[:, :take].T.astype(np.float32)
    if raw_hop0 is not None:
        raw = np.asarray(raw_hop0)
        if raw.shape != (rb.n, rb.width):
            raise ValueError("raw hop-0 features do not match the bank shape")
        slabs[0] = raw.astype(np.float32, copy=True)
    prov = {"basis": "krylov", "operator": "shifted", "hops": hops,
            "order": rb.order, "raw_hop0": raw_hop0 is not None}
    return HopBank(hops=hops, slabs=slabs, provenance=prov)


def apply_spectral_response(rb: RitzBank, g: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Evaluate sum_i g(lam_i) z_i per channel; g(x)=1 reproduces the input."""
    out = np.zeros((rb.n, rb.width), dtype=np.float64)
    for rc in rb.channels:
        gv = np.asarray(g(rc.values), dtype=np.float64)
        if gv.shape != rc.values.shape:
            raise ValueError("spectral response must return one value per Ritz value")
        out[:, rc.channel] = rc.components @ gv
    return out.astype(np.float32)


def ritz_triples(rb: RitzBank) -> list:
    """Flat (channel, value, weight) records for the diagnostics sidecar."""
    rows = []
    for rc in rb.channels:
        for v, w in zip(rc.values.tolist(), rc.weights.tolist()):
            rows.append({"channel": int(rc.channel), "value": v, "weight": w})
    return rows
