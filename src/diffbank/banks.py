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

Every family runs on ``recurrence``, the one three-term loop, which
``calibration.estimate_moments`` shares: monomial slabs take the
coefficients (1, 0, 0), the Jacobi families ``jacobi_coefficients``.
Every bank build issues exactly K sparse products. The recurrence runs in
float64 working precision and slabs are stored as float32. A build holds
two float64 working blocks, X_{k-1} and X_k, besides the slabs (see
``experiment.memory_plan``): each step's product arrives a row chunk at a
time (``spmm``'s ``then``), and the chunk's rows of X_{k+1} are computed
there, written over the rows of X_{k-1}, stored and checked. A slab that
is not finite in float32 (overflow at high K or with extreme Jacobi
weights) raises NumericalError. Slab 0 is the input and is not checked.

Every builder takes ``out``, a C-contiguous float32 (K+1, n, d) array, and
fills it in place of new slabs: the bank's bytes are the same either way.
The input may be ``out[0]`` itself, as when a staged run writes hidden
states into the slab 0 of the bank they are diffused into; slab 0 is then
left as it is, so the build holds the slabs, the two working blocks and
no other (n, d) copy of its input.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .graph import SparseOperator, spmm

__all__ = [
    "HopBank",
    "ConditioningReport",
    "jacobi_coefficients",
    "jacobi_endpoint_values",
    "recurrence",
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


def jacobi_coefficients(hops: int, alpha: float, beta: float) -> tuple:
    """Closed-form recurrence coefficients for Jacobi weights (alpha, beta).

    Returns the float64 arrays (a, b, c) of
    X_{k+1} = (a_k S + b_k I) X_k - c_k X_{k-1}, ``hops`` entries each.
    Weights must exceed -1. Entry k of each array advances degree k to k+1,
    so ``a[0], b[0]`` encode the explicit degree-1 polynomial and c[0] = 0.
    """
    if alpha <= -1.0 or beta <= -1.0:
        raise ConfigError(f"Jacobi weights must exceed -1, got ({alpha}, {beta})")
    a, b, c = np.zeros((3, max(hops, 0)))
    # the explicit degree-1 start, when there is a step
    a[:1] = 0.5 * (alpha + beta + 2.0)
    b[:1] = 0.5 * (alpha - beta)
    for k in range(1, hops):
        t = 2.0 * k + alpha + beta
        den = 2.0 * (k + 1.0) * (k + alpha + beta + 1.0) * t
        a[k] = t * (t + 1.0) * (t + 2.0) / den
        b[k] = (t + 1.0) * (alpha * alpha - beta * beta) / den
        c[k] = 2.0 * (k + alpha) * (k + beta) * (t + 2.0) / den
    return a, b, c


def jacobi_endpoint_values(hops: int, alpha: float, beta: float) -> np.ndarray:
    """P_k(1) for k = 0..hops, used to rescale the Chebyshev-like family."""
    vals = np.ones(hops + 1, dtype=np.float64)
    for k in range(1, hops + 1):
        vals[k] = vals[k - 1] * (alpha + k) / k
    return vals


def recurrence(op: SparseOperator, x: np.ndarray, a, b, c, emit) -> list:
    """Run X_{k+1} = (a_k S + b_k I) X_k - c_k X_{k-1} from X_0 = x for
    k < len(a), one sparse product per step; c_0 must be 0.

    Holds two float64 (n, d) working blocks, X_{k-1} and X_k. Each step's
    product arrives one row chunk at a time (``spmm``'s ``then``); the
    chunk's rows of X_{k+1} are written over the same rows of X_{k-1},
    which no chunk's product reads, and ``emit(k + 1, lo, hi, rows,
    scratch)`` gets them with the chunk's product scratch, free once the
    term is written. Returns each step's ``emit`` results in chunk order.
    """
    prev, cur = np.empty(x.shape), np.array(x, dtype=np.float64, order="C")
    results = []
    for k in range(len(a)):
        ak, bk, ck = a[k], b[k], c[k]

        def step(lo, hi, y):
            y *= ak
            if bk != 0.0:  # b_k X_k in 128-row pieces: 64 KB at width 64, whatever the chunk
                for s in range(lo, hi, 128):
                    y[s - lo:s - lo + 128] += cur[s:min(s + 128, hi)] * bk
            rows = prev[lo:hi]
            if ck != 0.0:
                rows *= ck
                np.subtract(y, rows, out=rows)
            else:
                rows[...] = y
            return emit(k + 1, lo, hi, rows, y)

        results.append(spmm(op, cur, then=step))
        prev, cur = cur, prev
    return results


def _slabs(out: np.ndarray | None, hops: int, x: np.ndarray) -> np.ndarray:
    """The (hops + 1, n, d) float32 slabs of a bank of ``x``: ``out``, which
    must be C-contiguous float32 of that shape, or new ones. Slab 0 gets
    ``x``, unless ``x`` is that slab already."""
    shape = (hops + 1,) + x.shape
    if out is None:
        out = np.empty(shape, dtype=np.float32)
    elif out.shape != shape or out.dtype != np.float32 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float32 array of shape {shape}")
    if not (x.dtype == out.dtype and x.strides == out.strides[1:]
            and x.ctypes.data == out.ctypes.data):
        out[0] = x
    return out


def _bank(op: SparseOperator, x: np.ndarray, hops: int, a, b, c, basis: str,
          scale: np.ndarray | None = None, out: np.ndarray | None = None,
          **extra) -> HopBank:
    """Slab k is X_k of ``recurrence``, divided by scale[k] if given, in
    ``out`` if given."""
    _check_budget(hops)
    x = _check_features(op, x)
    slabs = _slabs(out, hops, x)

    def store(k, lo, hi, rows, _):
        if scale is None:
            slabs[k, lo:hi] = rows
        else:
            np.divide(rows, scale[k], out=slabs[k, lo:hi])
        _check_slab(slabs, k, basis, slice(lo, hi))

    recurrence(op, x, a, b, c, store)
    return HopBank(hops=hops, slabs=slabs,
                   provenance={"basis": basis, "operator": op.kind, "hops": hops, **extra})


def monomial_bank(op: SparseOperator, x: np.ndarray, hops: int, *,
                  out: np.ndarray | None = None) -> HopBank:
    """Plain power bank: slab k is S^k X. Works on any operator kind."""
    return _bank(op, x, hops, [1.0] * hops, [0.0] * hops, [0.0] * hops, "monomial",
                 out=out)


def _jacobi_family(op: SparseOperator, x: np.ndarray, hops: int, alpha: float,
                   beta: float, basis: str, scale: np.ndarray | None = None,
                   out: np.ndarray | None = None) -> HopBank:
    if op.kind != "shifted":
        raise ValueError(f"{basis} banks require the 'shifted' operator, got {op.kind!r}")
    return _bank(op, x, hops, *jacobi_coefficients(hops, alpha, beta), basis, scale, out,
                 alpha=alpha, beta=beta)


def jacobi_bank(op: SparseOperator, x: np.ndarray, hops: int,
                alpha: float, beta: float, *, out: np.ndarray | None = None) -> HopBank:
    """Jacobi polynomial bank on the shifted operator: slab k is exactly
    P_k^(alpha, beta)(S) X, rounded to float32."""
    return _jacobi_family(op, x, hops, alpha, beta, "jacobi", out=out)


def legendre_bank(op: SparseOperator, x: np.ndarray, hops: int, *,
                  out: np.ndarray | None = None) -> HopBank:
    """Jacobi bank at weights (0, 0)."""
    return _jacobi_family(op, x, hops, 0.0, 0.0, "legendre", out=out)


def chebyshev_bank(op: SparseOperator, x: np.ndarray, hops: int, *,
                   out: np.ndarray | None = None) -> HopBank:
    """First-kind Chebyshev bank: slab k equals T_k(S) X.

    Built as the Jacobi (-1/2, -1/2) bank with each slab divided by the
    polynomial's value at 1, which rescales that family to T_k exactly.
    """
    return _jacobi_family(op, x, hops, -0.5, -0.5, "chebyshev",
                          jacobi_endpoint_values(hops, -0.5, -0.5), out)


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
    slabs = bank.slabs
    gram = np.empty((d, k1, k1))
    for k in range(k1):
        for j in range(k + 1):
            # float64 sums of float32 products, with no float64 copy of the bank
            gram[:, k, j] = gram[:, j, k] = np.einsum("nd,nd->d", slabs[k], slabs[j],
                                                      dtype=np.float64)
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
        "median_cond": float(np.median(cond[clean])) if clean.size else float("nan"),
        "max_cond": float(np.max(cond[clean])) if clean.size else float("nan"),
        "mean_abs_cos": float(np.mean(mean_abs[clean])) if clean.size else float("nan"),
    }
    return ConditioningReport(gram=gram, cond=cond, mean_abs_cos=mean_abs,
                              zero_norm_channels=zero, summary=summary)
