"""Construction and algebra of characteristic functions.

A CharFn wraps a vectorized evaluator chi: R^d -> C together with its
dimension and an integrability flag for integral(|chi|) < infinity.  The
flag drives the Fourier-inversion preconditions and is deliberately
conservative: it is "yes" only where a closed-form argument guarantees it,
"no" only for laws with atoms that force |chi| not to vanish at infinity,
and "unknown" otherwise.  "unknown" is never upgraded heuristically.

Constructed CFs satisfy chi(0) = 1 exactly, |chi(t)| <= 1 (+ rounding) and
the Hermitian symmetry chi(-t) = conj(chi(t)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .errors import ValidationError
from . import specs as sp

Integrability = Literal["yes", "no", "unknown"]

# Switch to the 2-term Taylor expansion of sin(x)/x once t*(hi-lo) is this
# small; avoids 0/0 at t=0 and cancellation nearby.
UNIFORM_TAYLOR_SWITCH = 1e-8


@dataclass(frozen=True)
class CharFn:
    """Evaluable characteristic function of a law on R^d.

    ``batch_eval`` maps an (N, d) float array to an (N,) complex array.
    Calling the CharFn accepts scalars (d=1), single points, or arrays of
    points with the coordinate axis last, and returns matching shapes.
    """

    d: int
    batch_eval: Callable[[np.ndarray], np.ndarray]
    integrable: Integrability
    provenance: str | None = None

    def __post_init__(self):
        if self.d < 1:
            raise ValidationError(f"dimension must be >= 1, got {self.d}")
        if self.integrable not in ("yes", "no", "unknown"):
            raise ValidationError(f"bad integrability flag {self.integrable!r}")

    def __call__(self, t) -> complex | np.ndarray:
        arr = np.asarray(t, dtype=float)
        if self.d == 1:
            pts = arr.reshape(-1, 1)
            out_shape = arr.shape
        else:
            if arr.ndim == 0 or arr.shape[-1] != self.d:
                raise ValidationError(
                    f"points for a {self.d}-d CF need last axis of length {self.d}, "
                    f"got shape {arr.shape}"
                )
            pts = arr.reshape(-1, self.d)
            out_shape = arr.shape[:-1]
        vals = np.asarray(self.batch_eval(pts), dtype=complex).reshape(out_shape)
        if vals.ndim == 0:
            return complex(vals)
        return vals


def _gaussian_eval(mean: np.ndarray, cov: np.ndarray):
    def ev(pts: np.ndarray) -> np.ndarray:
        # PSD tolerance can leave slightly negative quadratic forms; clamp
        # so |chi| <= 1 holds.
        quad = np.einsum("ni,ni->n", pts @ cov, pts)
        np.maximum(quad, 0.0, out=quad)
        return np.exp(1j * (pts @ mean) - 0.5 * quad)

    return ev


def _point_mass_eval(location: np.ndarray):
    def ev(pts: np.ndarray) -> np.ndarray:
        return np.exp(1j * (pts @ location))

    return ev


def _uniform_box_eval(lo: np.ndarray, hi: np.ndarray):
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    width = hi - lo

    def ev(pts: np.ndarray) -> np.ndarray:
        vals = np.ones(pts.shape[0], dtype=complex)
        for j in range(lo.size):
            tj = pts[:, j]
            x = tj * half[j]
            small = np.abs(tj * width[j]) < UNIFORM_TAYLOR_SWITCH
            safe = np.where(small, 1.0, x)
            ratio = np.where(small, 1.0 - x * x / 6.0, np.sin(safe) / safe)
            vals *= ratio * np.exp(1j * tj * center[j])
        return vals

    return ev


def _laplace_eval(scale: float):
    def ev(pts: np.ndarray) -> np.ndarray:
        t = pts[:, 0]
        return (1.0 / (1.0 + (scale * t) ** 2)).astype(complex)

    return ev


def _empirical_eval(points: np.ndarray, weights: np.ndarray):
    wsum = float(np.sum(weights))

    def ev(pts: np.ndarray) -> np.ndarray:
        # numerator and wsum share np.sum's reduction order, so at t = 0
        # the ratio is exactly 1 even for weights that do not sum to 1.0
        # in floating point
        return np.sum(np.exp(1j * (pts @ points.T)) * weights, axis=1) / wsum

    return ev


def _affine_eval(inner: CharFn, matrix: np.ndarray, shift: np.ndarray):
    def ev(pts: np.ndarray) -> np.ndarray:
        return inner.batch_eval(pts @ matrix) * np.exp(1j * (pts @ shift))

    return ev


def _iid_sum_eval(base: CharFn, n: int):
    root = math.sqrt(n)

    def ev(pts: np.ndarray) -> np.ndarray:
        return base.batch_eval(pts / root) ** n

    return ev


def _product_eval(factors: tuple[CharFn, ...]):
    def ev(pts: np.ndarray) -> np.ndarray:
        vals = np.ones(pts.shape[0], dtype=complex)
        for j, f in enumerate(factors):
            vals *= f.batch_eval(pts[:, j : j + 1])
        return vals

    return ev


def make_cf(spec: sp.DistributionSpec) -> CharFn:
    """Build the characteristic function of a distribution spec.

    Closed forms per constructor:

    - Gaussian(a, C):      exp(i<a,t> - <t,Ct>/2)
    - PointMass(x):        exp(i<x,t>)
    - UniformBox(lo, hi):  product over axes of exp(i t c_j) sin(t w_j)/(t w_j)
    - Laplace1D(b):        1/(1 + b^2 t^2)
    - Empirical:           sum_j w_j exp(i<t,x_j>)
    - Convolution:         pointwise product of part CFs
    - AffineMap(A, b):     chi_inner(A^T t) exp(i<b,t>)
    - StandardizedIIDSum:  chi_base(t/sqrt(n))^n
    - Product:             product over axes of factor CFs
    """
    if isinstance(spec, sp.Gaussian):
        flag: Integrability = "yes" if spec.is_positive_definite() else "unknown"
        return CharFn(spec.dim, _gaussian_eval(spec.mean, spec.cov), flag, "gaussian")
    if isinstance(spec, sp.PointMass):
        return CharFn(spec.dim, _point_mass_eval(spec.location), "no", "point_mass")
    if isinstance(spec, sp.UniformBox):
        return CharFn(spec.dim, _uniform_box_eval(spec.lo, spec.hi), "unknown", "uniform_box")
    if isinstance(spec, sp.Laplace1D):
        return CharFn(1, _laplace_eval(spec.scale), "yes", "laplace")
    if isinstance(spec, sp.Empirical):
        return CharFn(spec.dim, _empirical_eval(spec.points, spec.weights), "no", "empirical")
    if isinstance(spec, sp.Convolution):
        cfs = [make_cf(p) for p in spec.parts]
        out = cfs[0]
        for other in cfs[1:]:
            out = convolve(out, other)
        return out
    if isinstance(spec, sp.AffineMap):
        inner = make_cf(spec.inner)
        return CharFn(
            spec.dim, _affine_eval(inner, spec.matrix, spec.shift), "unknown", "affine_map"
        )
    if isinstance(spec, sp.StandardizedIIDSum):
        base = make_cf(spec.base)
        return CharFn(1, _iid_sum_eval(base, spec.n), "unknown", "standardized_iid_sum")
    if isinstance(spec, sp.Product):
        factors = tuple(make_cf(f) for f in spec.factors)
        return CharFn(spec.dim, _product_eval(factors), "unknown", "product")
    raise ValidationError(f"unknown spec class {type(spec).__name__}")


def convolve(a: CharFn, b: CharFn) -> CharFn:
    """CF of the sum of independent draws: pointwise product a(t) b(t).

    The result is integrable whenever either factor is, since the other
    factor is bounded by 1.
    """
    if a.d != b.d:
        raise ValidationError(f"dimension mismatch in convolve: {a.d} != {b.d}")
    flag: Integrability = "yes" if "yes" in (a.integrable, b.integrable) else "unknown"

    def ev(pts: np.ndarray) -> np.ndarray:
        return a.batch_eval(pts) * b.batch_eval(pts)

    return CharFn(a.d, ev, flag, "convolution")


def gaussian_mollify_cf(cf: CharFn, sigma: float) -> CharFn:
    """CF of the law smoothed by an independent N_d(0, sigma^2 I):
    t -> chi(t) exp(-sigma^2 <t,t> / 2).

    The Gaussian factor dominates, so the result is always integrable.
    """
    sigma = float(sigma)
    if not (sigma > 0 and np.isfinite(sigma)):
        raise ValidationError(f"sigma must be positive, got {sigma!r}")
    half_var = 0.5 * sigma * sigma

    def ev(pts: np.ndarray) -> np.ndarray:
        return cf.batch_eval(pts) * np.exp(-half_var * np.einsum("ni,ni->n", pts, pts))

    return CharFn(cf.d, ev, "yes", "gaussian_mollified")
