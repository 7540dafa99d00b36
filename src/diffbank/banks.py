"""Multi-hop diffusion feature banks built from polynomial recurrences.

A bank stacks K+1 slabs Z_0..Z_K of shape (n, d): Z_0 is the raw feature
matrix bit-for-bit, and slab k holds p_k(S) X for the chosen polynomial
family evaluated on a sparse operator S. Monomial banks use p_k(x) = x^k on
any operator; the orthogonal families (Legendre, Chebyshev, general Jacobi)
require the shifted operator whose spectrum lies in [-1, 1].

Jacobi slabs follow the standard three-term recurrence

    2(k+1)(k+a+b+1)(2k+a+b) P_{k+1}
        = (2k+a+b+1) [ (2k+a+b)(2k+a+b+2) x + a^2 - b^2 ] P_k
          - 2(k+a)(k+b)(2k+a+b+2) P_{k+1-2}

with the degree-1 start P_1 = ((a+b+2) x + (a-b)) / 2. The k = 0 step of
the generic formula has a (2k+a+b) denominator that vanishes for a+b in
{0, -1}, so degree 1 always uses the explicit start; for k >= 1 the
denominator 2(k+1)(k+a+b+1)(2k+a+b) is strictly positive whenever both
weights exceed -1, which the calibration clamp guarantees.

Every bank build issues exactly K sparse products. The recurrence runs in
float64 working precision, on float64 working slabs each build allocates
once, and slabs are stored as float32. Each step's update runs inside the
product's row blocks (``spmm``'s ``then``), where each block's rows of the
new slab are stored and checked: a slab that is not finite in float32
(overflow at high K or with extreme Jacobi weights) raises NumericalError.
Slab 0 is the input itself and is not checked.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .graph import SparseOperator, spmm

__all__ = [
    "HopBank",
    "RecurrenceCoeffs",
    "ConditioningReport",
    "jacobi_coefficients",
    "jacobi_endpoint_values",
    "monomial_bank",
    "jacobi_bank",
    "chebyshev_bank",
    "legendre_bank",
    "bank_report",
]

MAX_HOPS = 15


@dataclass(frozen=True)
class HopBank:
    """K+1 stacked diffusion slabs with provenance of how they were built."""

    hops: int
    slabs: np.ndarray  # (hops + 1, n, d) float32
    provenance: dict

    @property
    def n(self) -> int:
        return int(self.slabs.shape[1])

    @property
    def width(self) -> int:
        return int(self.slabs.shape[2])


@dataclass(frozen=True)
class RecurrenceCoeffs:
    """Coefficients for X_{k+1} = (a_k S + b_k I) X_k - c_k X_{k-1}."""

    alpha: float
    beta: float
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray


def _check_budget(hops: int) -> None:
    if hops < 0:
        raise ConfigError("hop count must be nonnegative")
    if hops > MAX_HOPS:
        raise ConfigError(f"hop count {hops} exceeds the fixed hop budget of {MAX_HOPS}")


def _check_slab(slabs: np.ndarray, k: int, basis: str, rows=slice(None)) -> None:
    # min and max carry any NaN or infinity without allocating a mask
    part = slabs[k, rows]
    if part.size and not (np.isfinite(part.min()) and np.isfinite(part.max())):
        raise NumericalError(f"{basis} bank slab {k} is not finite in float32")


def _check_features(op: SparseOperator, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValueError("features must be an (n, d) matrix")
    if x.shape[0] != op.n:
        raise ValueError(f"features have {x.shape[0]} rows, operator expects {op.n}")
    return x


def jacobi_coefficients(hops: int, alpha: float, beta: float) -> RecurrenceCoeffs:
    """Closed-form recurrence coefficients for Jacobi weights (alpha, beta).

    Weights must exceed -1. Entry k of each array advances degree k to k+1,
    so ``a[0], b[0]`` encode the explicit degree-1 polynomial and c[0] = 0.
    """
    if alpha <= -1.0 or beta <= -1.0:
        raise ConfigError(f"Jacobi weights must exceed -1, got ({alpha}, {beta})")
    steps = max(hops, 0)
    a = np.zeros(steps, dtype=np.float64)
    b = np.zeros(steps, dtype=np.float64)
    c = np.zeros(steps, dtype=np.float64)
    if steps == 0:
        return RecurrenceCoeffs(alpha=alpha, beta=beta, a=a, b=b, c=c)
    a[0] = 0.5 * (alpha + beta + 2.0)
    b[0] = 0.5 * (alpha - beta)
    for k in range(1, steps):
        t = 2.0 * k + alpha + beta
        den = 2.0 * (k + 1.0) * (k + alpha + beta + 1.0) * t
        a[k] = t * (t + 1.0) * (t + 2.0) / den
        b[k] = (t + 1.0) * (alpha * alpha - beta * beta) / den
        c[k] = 2.0 * (k + alpha) * (k + beta) * (t + 2.0) / den
    return RecurrenceCoeffs(alpha=alpha, beta=beta, a=a, b=b, c=c)


def jacobi_endpoint_values(hops: int, alpha: float, beta: float) -> np.ndarray:
    """P_k(1) for k = 0..hops, used to rescale the Chebyshev-like family."""
    vals = np.ones(hops + 1, dtype=np.float64)
    for k in range(1, hops + 1):
        vals[k] = vals[k - 1] * (alpha + k) / k
    return vals


def _provenance(op: SparseOperator, basis: str, hops: int, **extra) -> dict:
    p = {"basis": basis, "operator": op.kind, "hops": hops}
    p.update(extra)
    return p


def monomial_bank(op: SparseOperator, x: np.ndarray, hops: int) -> HopBank:
    """Plain power bank: slab k is S^k X. Works on any operator kind."""
    _check_budget(hops)
    x = _check_features(op, x)
    slabs = np.empty((hops + 1,) + x.shape, dtype=np.float32)
    slabs[0] = x.astype(np.float32, copy=True)
    cur, out = np.array(x, dtype=np.float64), np.empty(x.shape)
    for k in range(1, hops + 1):
        def step(lo, hi):
            slabs[k, lo:hi] = out[lo:hi]
            _check_slab(slabs, k, "monomial", slice(lo, hi))

        spmm(op, cur, out=out, then=step)
        cur, out = out, cur
    return HopBank(hops=hops, slabs=slabs, provenance=_provenance(op, "monomial", hops))


def jacobi_bank(op: SparseOperator, x: np.ndarray, hops: int,
                alpha: float, beta: float, *,
                _basis_tag: str = "jacobi", _rescale: np.ndarray | None = None) -> HopBank:
    """Jacobi polynomial bank on the shifted operator: slab k is exactly
    P_k^(alpha, beta)(S) X, rounded to float32."""
    if op.kind != "shifted":
        raise ValueError(f"jacobi banks require the 'shifted' operator, got {op.kind!r}")
    _check_budget(hops)
    x = _check_features(op, x)
    rc = jacobi_coefficients(hops, alpha, beta)

    slabs = np.empty((hops + 1,) + x.shape, dtype=np.float32)
    slabs[0] = x.astype(np.float32, copy=True)
    # float64 working slabs; np.empty commits no memory until a step writes
    # it, so ``scratch`` costs nothing for the b = 0 families
    prev, cur, out, scratch = (np.empty(x.shape) for _ in range(4))
    cur[...] = x
    for k in range(hops):
        a, b, c = rc.a[k], rc.b[k], rc.c[k]

        def step(lo, hi):
            y = out[lo:hi]
            y *= a
            if b != 0.0:
                y += np.multiply(cur[lo:hi], b, out=scratch[lo:hi])
            if c != 0.0:  # c[0] = 0, so step 0 never reads prev
                # prev's rows take the next product, so they may be spent here
                p = prev[lo:hi]
                p *= c
                y -= p
            rows = slabs[k + 1, lo:hi]
            if _rescale is None:
                rows[...] = y
            else:
                np.divide(y, _rescale[k + 1], out=rows)
            _check_slab(slabs, k + 1, _basis_tag, slice(lo, hi))

        spmm(op, cur, out=out, then=step)
        prev, cur, out = cur, out, prev

    return HopBank(hops=hops, slabs=slabs,
                   provenance=_provenance(op, _basis_tag, hops, alpha=alpha, beta=beta))


def legendre_bank(op: SparseOperator, x: np.ndarray, hops: int) -> HopBank:
    """Jacobi bank at weights (0, 0)."""
    return jacobi_bank(op, x, hops, 0.0, 0.0, _basis_tag="legendre")


def chebyshev_bank(op: SparseOperator, x: np.ndarray, hops: int) -> HopBank:
    """First-kind Chebyshev bank: slab k equals T_k(S) X.

    Built as the Jacobi (-1/2, -1/2) bank with each slab divided by the
    polynomial's value at 1, which rescales that family to T_k exactly.
    """
    rescale = jacobi_endpoint_values(hops, -0.5, -0.5)
    return jacobi_bank(op, x, hops, -0.5, -0.5, _basis_tag="chebyshev",
                       _rescale=rescale)


@dataclass(frozen=True)
class ConditioningReport:
    """Per-channel hop-column geometry of a bank.

    Gram matrices are cosine Grams: hop columns are unit-normalized before
    the inner products, so mutually orthogonal hops give condition number 1
    no matter their scale. Channels where some hop column has zero norm are
    listed separately and excluded from the summary statistics.
    """

    gram: np.ndarray             # (d, hops+1, hops+1), raw inner products
    cond: np.ndarray             # (d,) cosine-Gram condition numbers
    mean_abs_cos: np.ndarray     # (d,) mean off-diagonal |cosine|
    zero_norm_channels: np.ndarray
    summary: dict


def bank_report(bank: HopBank) -> ConditioningReport:
    """Measure hop-column collinearity per channel."""
    k1 = bank.hops + 1
    d = bank.width
    cols = bank.slabs.astype(np.float64).transpose(2, 1, 0)  # (d, n, k1)
    gram = np.einsum("dnk,dnl->dkl", cols, cols)
    norms = np.sqrt(np.einsum("dkk->dk", gram))
    zero = np.nonzero(np.any(norms <= 0.0, axis=1))[0]
    cond = np.full(d, np.inf)
    mean_abs = np.full(d, np.nan)
    off = ~np.eye(k1, dtype=bool)
    for c in range(d):
        if c in zero:
            continue
        cosg = gram[c] / np.outer(norms[c], norms[c])
        ev = np.linalg.eigvalsh(cosg)
        cond[c] = np.inf if ev[0] <= 0.0 else ev[-1] / ev[0]
        mean_abs[c] = np.mean(np.abs(cosg[off])) if k1 > 1 else 0.0
    clean = np.setdiff1d(np.arange(d), zero)
    summary = {
        "channels": d,
        "zero_norm_channels": int(zero.size),
        "mean_cond": float(np.mean(cond[clean])) if clean.size else float("nan"),
        "max_cond": float(np.max(cond[clean])) if clean.size else float("nan"),
        "mean_abs_cos": float(np.mean(mean_abs[clean])) if clean.size else float("nan"),
    }
    return ConditioningReport(gram=gram, cond=cond, mean_abs_cos=mean_abs,
                              zero_norm_channels=zero, summary=summary)
