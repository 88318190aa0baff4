"""Independent references for the benchmark's correctness checks.

Nothing here calls into cfmoll: every density comes from a closed form
(erf/erfc expressions, Gaussian mixtures, products of 1-d forms) or, for
standardized uniform sums, from a Gauss-Legendre cosine transform that
shares no code with the library's trapezoid lattice.

Documented tolerances (the denominators of ``err_budget_used``):
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfc, erfcx, gammaln, ndtr

TOL_CLOSED_FORM = 1e-6   # closed forms at defaults
TOL_LAPLACE = 1e-4       # inversion of CFs with 1/t^2 tails
TOL_GRID_POINT = 1e-10   # grid value vs pointwise value, same plan
MC_SIGMAS = 6.0          # Monte Carlo checks allow this many standard errors
ECF_BUDGET = 5.0         # empirical CF: max error <= ECF_BUDGET / sqrt(n)

SQRT3 = math.sqrt(3.0)


def gauss_1d(z, mean: float, var: float) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    return np.exp(-0.5 * (z - mean) ** 2 / var) / math.sqrt(2.0 * math.pi * var)


def gauss_nd(pts: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Multivariate normal density at the rows of ``pts``."""
    d = len(mean)
    chol = np.linalg.cholesky(cov)
    sol = np.linalg.solve(chol, (pts - mean).T)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return np.exp(-0.5 * np.sum(sol * sol, axis=0) - 0.5 * (d * math.log(2 * math.pi) + logdet))


def laplace(z, b: float) -> np.ndarray:
    return np.exp(-np.abs(np.asarray(z, dtype=float)) / b) / (2.0 * b)


def _laplace_cdf(x: np.ndarray, b: float) -> np.ndarray:
    return np.where(x < 0, 0.5 * np.exp(np.minimum(x, 0) / b), 1.0 - 0.5 * np.exp(-np.maximum(x, 0) / b))


def uniform_conv_laplace(z, lo: float, hi: float, b: float) -> np.ndarray:
    """Density of Uniform(lo, hi) + Laplace(b): (F(z - lo) - F(z - hi)) / (hi - lo)."""
    z = np.asarray(z, dtype=float)
    return (_laplace_cdf(z - lo, b) - _laplace_cdf(z - hi, b)) / (hi - lo)


def uniform_smoothed(z, lo: float, hi: float, sigma: float) -> np.ndarray:
    """Uniform(lo, hi) convolved with N(0, sigma^2)."""
    z = np.asarray(z, dtype=float)
    return (ndtr((z - lo) / sigma) - ndtr((z - hi) / sigma)) / (hi - lo)


def laplace_smoothed(z, b: float, sigma: float) -> np.ndarray:
    """Laplace(b) convolved with N(0, sigma^2), in the overflow-free erfcx form
    exp(-z^2 / 2 sigma^2) / (4 b) * [erfcx(x-) + erfcx(x+)],
    x-+ = (sigma^2 / b -+ z) / (sigma sqrt 2)."""
    z = np.asarray(z, dtype=float)
    s2 = sigma * math.sqrt(2.0)
    a = sigma * sigma / b
    return np.exp(-0.5 * z * z / sigma**2) / (4.0 * b) * (erfcx((a - z) / s2) + erfcx((a + z) / s2))


def mixture_1d(z, atoms: np.ndarray, weights: np.ndarray, sigma: float) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    for a, w in zip(atoms, weights):
        out += w * gauss_1d(z, a, sigma * sigma)
    return out


def mixture_nd(pts: np.ndarray, atoms: np.ndarray, weights: np.ndarray, sigma: float) -> np.ndarray:
    """Isotropic Gaussian mixture: the smoothed density of an Empirical law."""
    d = atoms.shape[1]
    out = np.zeros(pts.shape[0])
    norm = (2.0 * math.pi * sigma * sigma) ** (-0.5 * d)
    for a, w in zip(atoms, weights):
        out += w * np.exp(-0.5 * np.sum((pts - a) ** 2, axis=1) / sigma**2)
    return out * norm


def rademacher_sum_atoms(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Atoms and weights of (sum of n Rademacher signs) / sqrt(n)."""
    j = np.arange(n + 1)
    logw = gammaln(n + 1) - gammaln(j + 1) - gammaln(n - j + 1) - n * math.log(2.0)
    return (2.0 * j - n) / math.sqrt(n), np.exp(logw)


def rademacher_sum_cf(t, n: int) -> np.ndarray:
    return np.cos(np.asarray(t, dtype=float) / math.sqrt(n)) ** n


def uniform_sum_cf(t, n: int) -> np.ndarray:
    """CF of the sum of n Uniform(-sqrt 3, sqrt 3) draws divided by sqrt(n)."""
    x = SQRT3 * np.asarray(t, dtype=float) / math.sqrt(n)
    return np.sinc(x / math.pi) ** n


def uniform_sum_smoothed(z, n: int, sigma: float) -> np.ndarray:
    """Smoothed density of a standardized uniform sum by Gauss-Legendre on
    (1/pi) int_0^T chi(t) cos(t z) exp(-sigma^2 t^2 / 2) dt, with T where the
    damping falls below 1e-18 (panels of 64 nodes, 0.25 / sigma wide)."""
    z = np.asarray(z, dtype=float)
    top = math.sqrt(2.0 * 18.0 * math.log(10.0)) / sigma
    panels = max(8, math.ceil(top * sigma / 0.25))
    x, w = np.polynomial.legendre.leggauss(64)
    edges = np.linspace(0.0, top, panels + 1)
    half = 0.5 * np.diff(edges)
    t = (edges[:-1, None] + half[:, None] * (x[None, :] + 1.0)).reshape(-1)
    wt = (half[:, None] * w[None, :]).reshape(-1)
    integrand = wt * uniform_sum_cf(t, n) * np.exp(-0.5 * sigma * sigma * t * t)
    return np.cos(np.outer(z, t)) @ integrand / math.pi


def gauss_tail(r: float, var: float = 1.0) -> float:
    """P(|X| > r) for X ~ N(0, var)."""
    return float(erfc(r / math.sqrt(2.0 * var)))


def mc_tol(sd: float, n: int) -> float:
    return MC_SIGMAS * sd / math.sqrt(n)


def riemann_l1(a: np.ndarray, b: np.ndarray, cell: float) -> float:
    return float(np.sum(np.abs(a - b)) * cell)
