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
graph degrades to Legendre (0, 0).

Grid densities are integrated against the arcsine weight in closed form per
cell. A plain trapezoid rule systematically starves lobes that sit near the
endpoints, where the Chebyshev weight is integrably singular, and that bias
is large enough to corrupt delta on small graphs.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .graph import SparseOperator, spmm
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


@dataclass(frozen=True)
class MomentVector:
    """Chebyshev trace moments m_k ~ Tr T_k(S); exact when probes == 0."""

    values: np.ndarray
    probes: int
    seed: int | None
    probe_kind: str


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
                     probes: int = DEFAULT_PROBES, seed: int = 0,
                     probe_kind: str = "gaussian") -> MomentVector:
    """Stochastic Chebyshev trace moments of the shifted operator.

    Runs the three-term recurrence v_{k+1} = 2 S v_k - v_{k-1} on a block of
    random probe vectors, each step's update fused into the product's row
    blocks, and averages <z, v_k> over probes. Exactly ``order`` sparse
    products are issued. m_0 concentrates near n with standard error
    about n * sqrt(2/n) / sqrt(probes) for Gaussian probes.
    """
    _require_shifted(op)
    if order < 1:
        raise ConfigError("moment order must be >= 1")
    if probes < 1:
        raise ConfigError("probe count must be >= 1")
    if probe_kind not in ("gaussian", "rademacher"):
        raise ConfigError(f"unknown probe kind {probe_kind!r}")

    rng = rng_for(seed, "chebyshev-probes", probe_kind)
    n = op.n
    if probe_kind == "gaussian":
        z = rng.standard_normal((n, probes))
    else:
        z = rng.integers(0, 2, size=(n, probes)).astype(np.float64) * 2.0 - 1.0

    m = np.empty(order + 1, dtype=np.float64)
    m[0] = np.sum(z * z) / probes
    v_prev, v, out = z.copy(), spmm(op, z), np.empty_like(z)
    m[1] = np.sum(z * v) / probes
    for k in range(2, order + 1):
        def step(lo, hi):
            y = out[lo:hi]
            y *= 2.0
            y -= v_prev[lo:hi]

        spmm(op, v, out=out, then=step)
        v_prev, v, out = v, out, v_prev
        m[k] = np.sum(z * v) / probes
    return MomentVector(values=m, probes=probes, seed=seed, probe_kind=probe_kind)


def exact_moments(op: SparseOperator, order: int = DEFAULT_ORDER,
                  max_nodes: int = 64) -> MomentVector:
    """Exact traces Tr T_k(S) by dense recurrence; guarded to small graphs."""
    _require_shifted(op)
    if op.n > max_nodes:
        raise ConfigError(f"exact moments limited to {max_nodes} nodes, got {op.n}")
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
    return MomentVector(values=m, probes=0, seed=None, probe_kind="exact")


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


def reconstruct_density(moments: MomentVector, n: int, grid_points: int = DEFAULT_GRID,
                        margin: float = DEFAULT_MARGIN) -> SpectralDensity:
    """Jackson-damped Chebyshev reconstruction of the eigenvalue density.

    Evaluates the damped series on a uniform grid over [-1 + margin,
    1 - margin], clamps negative ripples to zero and renormalizes to unit
    mass. Raises NumericalError when clamping leaves nothing, which happens
    for moment vectors that do not come from any positive measure.
    """
    if grid_points < 8:
        raise ConfigError("density grid needs at least 8 points")
    if not (0.0 < margin < 0.5):
        raise ConfigError("margin must lie in (0, 0.5)")
    vals = np.asarray(moments.values, dtype=np.float64)
    coef = jackson_coefficients(vals.size - 1) * (vals / float(n))
    coef[1:] *= 2.0
    grid = np.linspace(-1.0 + margin, 1.0 - margin, grid_points)
    series = np.polynomial.chebyshev.chebval(grid, coef)
    rho = np.clip(series, 0.0, None) / (np.pi * np.sqrt(1.0 - grid * grid))
    m_low, m_high = _split_masses(grid, rho)
    total = m_low + m_high
    if not np.isfinite(total) or total <= 0.0:
        raise NumericalError("density vanished after clamping; moments are degenerate")
    return SpectralDensity(grid=grid, rho=rho / total)


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
              grid_points: int = DEFAULT_GRID, gamma: float = DEFAULT_GAMMA,
              margin: float = DEFAULT_MARGIN, seed: int = 0,
              probe_kind: str = "gaussian", exact: bool = False):
    """Full calibration pass: moments -> density -> delta -> weights.

    Returns (weights, density, moments). ``exact=True`` replaces the
    stochastic trace with a dense recurrence and is limited to 64 nodes.
    """
    if exact:
        moments = exact_moments(op, order=order)
    else:
        moments = estimate_moments(op, order=order, probes=probes, seed=seed,
                                   probe_kind=probe_kind)
    density = reconstruct_density(moments, op.n, grid_points=grid_points, margin=margin)
    delta = spectral_imbalance(density)
    weights = calibrate_jacobi(delta, gamma=gamma)
    return weights, density, moments
