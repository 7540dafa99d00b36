"""Spectral density estimation and polynomial weight calibration.

The shifted normalized Laplacian has its spectrum inside [-1, 1]. We probe
its eigenvalue density with stochastic Chebyshev trace estimates, smooth the
truncated series with the Jackson kernel, and summarize the result as a
single imbalance score

    delta = (M_high - M_low) / (M_high + M_low),

where M_low and M_high are the density mass on [-1, 0] and [0, 1]. The score
is mapped to Jacobi weights (alpha, beta) that tilt polynomial resolution
toward the heavier side of the spectrum: a graph whose mass sits above zero
gets alpha < 0, one whose mass sits below zero gets beta < 0, and a balanced
graph degrades to Legendre (0, 0). The trace moments run on
``banks.recurrence``, the loop that builds the polynomial banks, with the
coefficients of T_k.

Grid densities are integrated against the arcsine weight in closed form per
cell. A plain trapezoid rule systematically starves lobes that sit near the
endpoints, where the Chebyshev weight is integrably singular, and that bias
is large enough to corrupt delta on small graphs.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .banks import recurrence
from .errors import ConfigError, NumericalError
# spmm is imported only for perfbench's tracer binding (ROADMAP item 6,
# "a per-phase cost meter"); recurrence multiplies
from .graph import SparseOperator, check_fits, row_chunks, spmm  # noqa: F401
from .rng import rng_for

__all__ = [
    "MomentVector",
    "SpectralDensity",
    "JacobiWeights",
    "estimate_moments",
    "exact_moments",
    "reconstruct_density",
    "spectral_imbalance",
    "calibrate_jacobi",
    "calibrate",
    "jackson_coefficients",
]

DEFAULT_ORDER = 20
DEFAULT_PROBES = 64
DEFAULT_GRID = 512
DEFAULT_GAMMA = 0.5
DEFAULT_MARGIN = 1e-3
WEIGHT_FLOOR = -0.99
EXACT_MAX_NODES = 64


@dataclass(frozen=True)
class MomentVector:
    """Chebyshev trace moments m_k ~ Tr T_k(S); exact when probes == 0."""

    values: np.ndarray
    probes: int


@dataclass(frozen=True)
class SpectralDensity:
    """Nonnegative density samples on a uniform grid, unit total mass."""

    grid: np.ndarray
    rho: np.ndarray


@dataclass(frozen=True)
class JacobiWeights:
    alpha: float
    beta: float
    delta: float
    gamma: float


def _require_shifted(op: SparseOperator) -> None:
    if op.kind != "shifted":
        raise ValueError(f"spectral calibration runs on the 'shifted' operator, got {op.kind!r}")


def estimate_moments(op: SparseOperator, order: int = DEFAULT_ORDER,
                     probes: int = DEFAULT_PROBES, seed: int = 0) -> MomentVector:
    """Stochastic Chebyshev trace moments of the shifted operator.

    Runs the three-term recurrence v_{k+1} = 2 S v_k - v_{k-1} on a block of
    Gaussian probe vectors z with ``banks.recurrence`` and averages <z, v_k>
    over probes. Each chunk's rows of v_{k+1} are dotted with z as they
    are written, and each <z, v_k> adds those per-chunk sums in chunk
    order, so the moments do not depend on the thread count; besides z the
    recurrence holds two (n, probes) blocks. Exactly ``order`` sparse
    products are issued. m_0 concentrates near n with standard error about
    n * sqrt(2/n) / sqrt(probes).
    """
    _require_shifted(op)
    if order < 1:
        raise ConfigError("moment order must be >= 1")
    if probes < 1:
        raise ConfigError("probe count must be >= 1")

    # z and the recurrence's two working blocks, float64
    check_fits(3 * 8 * op.n * probes, f"{probes:,} calibration probes on {op.n:,} nodes")
    z = rng_for(seed, "chebyshev-probes", "gaussian").standard_normal((op.n, probes))

    def mean(parts):
        return functools.reduce(np.add, parts) / probes

    m = np.empty(order + 1, dtype=np.float64)
    m[0] = mean(row_chunks(op, probes, lambda lo, hi: np.sum(z[lo:hi] * z[lo:hi])))
    # v_1 = S z, then v_{k+1} = 2 S v_k - v_{k-1}; a chunk's part of
    # <z, v_k> is multiplied into the free product scratch
    steps = recurrence(op, z, [1.0] + [2.0] * (order - 1), [0.0] * order,
                       [0.0] + [1.0] * (order - 1),
                       lambda k, lo, hi, rows, y: np.sum(np.multiply(z[lo:hi], rows, out=y)))
    m[1:] = [mean(parts) for parts in steps]
    return MomentVector(values=m, probes=probes)


def exact_moments(op: SparseOperator, order: int = DEFAULT_ORDER) -> MomentVector:
    """Exact traces Tr T_k(S) by dense recurrence; guarded to small graphs."""
    _require_shifted(op)
    if op.n > EXACT_MAX_NODES:
        raise ConfigError(f"exact moments limited to {EXACT_MAX_NODES} nodes, got {op.n}")
    s = op._matrix.toarray()
    m = np.empty(order + 1, dtype=np.float64)
    t_prev = np.eye(op.n)
    t = s.copy()
    m[0] = float(op.n)
    m[1] = np.trace(t)
    for k in range(2, order + 1):
        t_next = 2.0 * (s @ t) - t_prev
        t_prev, t = t, t_next
        m[k] = np.trace(t)
    return MomentVector(values=m, probes=0)


def jackson_coefficients(order: int) -> np.ndarray:
    """Damping weights g_0..g_order for a series truncated at ``order``."""
    k = np.arange(order + 1)
    n = order + 1.0
    return ((n - k) * np.cos(np.pi * k / n)
            + np.sin(np.pi * k / n) / np.tan(np.pi / n)) / n


def _arcsine_cell_mass(p0, p1, x0, x1):
    # integral over [x0, x1] of (p0 + slope (x - x0)) / (pi sqrt(1 - x^2))
    i0 = (np.arcsin(x1) - np.arcsin(x0)) / np.pi
    ix = (np.sqrt(max(0.0, 1.0 - x0 * x0)) - np.sqrt(max(0.0, 1.0 - x1 * x1))) / np.pi
    slope = (p1 - p0) / (x1 - x0)
    return p0 * i0 + slope * (ix - x0 * i0)


def _split_masses(grid: np.ndarray, rho: np.ndarray):
    """Mass below and above zero, integrating the smooth polynomial factor
    linearly per cell against the arcsine weight. The cells touching the
    interval ends extend to -1 and 1 with a constant factor."""
    p = rho * np.pi * np.sqrt(1.0 - grid * grid)
    m_low = _arcsine_cell_mass(p[0], p[0], -1.0, grid[0])
    m_high = _arcsine_cell_mass(p[-1], p[-1], grid[-1], 1.0)
    for i in range(grid.size - 1):
        x0, x1 = grid[i], grid[i + 1]
        if x1 <= 0.0:
            m_low += _arcsine_cell_mass(p[i], p[i + 1], x0, x1)
        elif x0 >= 0.0:
            m_high += _arcsine_cell_mass(p[i], p[i + 1], x0, x1)
        else:
            pm = p[i] + (p[i + 1] - p[i]) * (0.0 - x0) / (x1 - x0)
            m_low += _arcsine_cell_mass(p[i], pm, x0, 0.0)
            m_high += _arcsine_cell_mass(pm, p[i + 1], 0.0, x1)
    return m_low, m_high


def reconstruct_density(moments: MomentVector, n: int) -> SpectralDensity:
    """Jackson-damped Chebyshev reconstruction of the eigenvalue density.

    Evaluates the damped series on ``DEFAULT_GRID`` uniform points over
    [-1 + DEFAULT_MARGIN, 1 - DEFAULT_MARGIN], clamps negative ripples to
    zero and renormalizes to unit mass. Raises NumericalError when clamping
    leaves nothing, which happens for moment vectors that do not come from
    any positive measure.
    """
    vals = np.asarray(moments.values, dtype=np.float64)
    coef = jackson_coefficients(vals.size - 1) * (vals / float(n))
    coef[1:] *= 2.0
    xs = np.linspace(-1.0 + DEFAULT_MARGIN, 1.0 - DEFAULT_MARGIN, DEFAULT_GRID)
    series = np.polynomial.chebyshev.chebval(xs, coef)
    rho = np.clip(series, 0.0, None) / (np.pi * np.sqrt(1.0 - xs * xs))
    m_low, m_high = _split_masses(xs, rho)
    total = m_low + m_high
    if not np.isfinite(total) or total <= 0.0:
        raise NumericalError("density vanished after clamping; moments are degenerate")
    return SpectralDensity(grid=xs, rho=rho / total)


def spectral_imbalance(density: SpectralDensity) -> float:
    """Signed mass imbalance in [-1, 1]; positive means high-frequency heavy."""
    m_low, m_high = _split_masses(density.grid, density.rho)
    total = m_low + m_high
    if total <= 0.0:
        raise NumericalError("density has no mass")
    return float((m_high - m_low) / total)


def calibrate_jacobi(delta: float, gamma: float = DEFAULT_GAMMA) -> JacobiWeights:
    """Map an imbalance score to Jacobi weights.

    alpha = gamma * min(-delta, 0) and beta = gamma * min(delta, 0), both
    clamped to (-0.99, 0]. Exactly one of the two is nonzero unless delta
    is zero, and delta = 0 yields Legendre weights.
    """
    if not (0.0 < gamma < 1.0):
        raise ConfigError(f"gamma must lie in (0, 1), got {gamma}")
    if not (-1.0 <= delta <= 1.0) or not np.isfinite(delta):
        raise ConfigError(f"imbalance delta must lie in [-1, 1], got {delta}")
    alpha = gamma * min(-delta, 0.0)
    beta = gamma * min(delta, 0.0)
    alpha = max(alpha, WEIGHT_FLOOR)
    beta = max(beta, WEIGHT_FLOOR)
    return JacobiWeights(alpha=float(alpha), beta=float(beta),
                         delta=float(delta), gamma=float(gamma))


def calibrate(op: SparseOperator, *, order: int = DEFAULT_ORDER, probes: int = DEFAULT_PROBES,
              gamma: float = DEFAULT_GAMMA, seed: int = 0, exact: bool = False):
    """Full calibration pass: moments -> density -> delta -> weights.

    Returns (weights, density, moments). ``exact=True`` replaces the
    stochastic trace with a dense recurrence and is limited to
    ``EXACT_MAX_NODES`` nodes.
    """
    if exact:
        moments = exact_moments(op, order=order)
    else:
        moments = estimate_moments(op, order=order, probes=probes, seed=seed)
    density = reconstruct_density(moments, op.n)
    delta = spectral_imbalance(density)
    weights = calibrate_jacobi(delta, gamma=gamma)
    return weights, density, moments
