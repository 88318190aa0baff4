"""Characteristic functions and their algebra.

Each spec class builds its own CharFn (``DistributionSpec.cf`` in
``cfmoll.specs``); this module holds the CharFn type, ``make_cf``, the
operations on CFs (``convolve``, ``gaussian_mollify_cf``) and the helpers
every other module shares (``cis`` for complex phases, ``LatticeRows``
for probe blocks that are whole lattice rows, ``whole_number`` and
``positive_sigma`` for checked counts and scales), and knows nothing of
specs.

A CharFn wraps a vectorized evaluator chi: R^d -> C together with its
dimension and an integrability flag for integral(|chi|) < infinity.  The
flag drives the Fourier-inversion preconditions and is deliberately
conservative: it is "yes" only where a closed-form argument guarantees it,
"no" only for laws with atoms that force |chi| not to vanish at infinity,
and "unknown" otherwise.  "unknown" is never upgraded heuristically.

The evaluator returns float64 where its closed form is real (a zero-mean
Gaussian, Laplace, a centred box, and products, convolutions,
standardized sums and unshifted affine maps built only from such laws)
and complex otherwise; an ``Empirical`` law is complex even when it is
symmetric.  The operations here keep that dtype, so the quadrature in
``cfmoll.mollify`` sees a real chi as real lattice weights.

Constructed CFs satisfy chi(0) = 1 exactly, |chi(t)| <= 1 (+ rounding) and
the Hermitian symmetry chi(-t) = conj(chi(t)).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .errors import ValidationError

Integrability = Literal["yes", "no", "unknown"]


@dataclass(frozen=True)
class CharFn:
    """Evaluable characteristic function of a law on R^d.

    ``batch_eval`` maps an (N, d) float array to an (N,) array: complex,
    or float64 where chi is real (a symmetric law).  Calling the CharFn
    accepts scalars (d=1), single points, or arrays of points with the
    coordinate axis last, and returns complex values of matching shapes;
    an (N, d) ``LatticeRows`` block reaches ``batch_eval`` as it is.
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
        if getattr(t, "lattice", None) is not None and t.shape[1:] == (self.d,):
            # a LatticeRows block keeps its row layout
            return np.asarray(self.batch_eval(t), dtype=complex)
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


def make_cf(spec) -> CharFn:
    """Build the characteristic function of a distribution spec.

    Each constructor in ``cfmoll.specs`` owns its closed form, so this is
    ``spec.cf()``.
    """
    return spec.cf()


def convolve(a: CharFn, b: CharFn) -> CharFn:
    """CF of the sum of independent draws: pointwise product a(t) b(t),
    real when both factors are.

    The result is integrable whenever either factor is, since the other
    factor is bounded by 1.
    """
    if a.d != b.d:
        raise ValidationError(f"dimension mismatch in convolve: {a.d} != {b.d}")
    flag: Integrability = "yes" if "yes" in (a.integrable, b.integrable) else "unknown"

    def ev(pts: np.ndarray) -> np.ndarray:
        return a.batch_eval(pts) * b.batch_eval(pts)

    return CharFn(a.d, ev, flag, "convolution")


class LatticeRows(np.ndarray):
    """(N, d) probes, d >= 2, that are whole rows of a tensor lattice, as
    ``cfmoll.mollify`` fills its blocks: ``lattice`` is (lead, last), each
    row's leading coordinates, (rows, d - 1), and the last-axis nodes
    every row shares, (L,), so probe r L + l is (lead[r], last[l]).  The
    evaluators in ``cfmoll.specs`` factor chi over that layout.

    ``Grid.points`` returns one in d >= 2, and a ``CharFn`` call passes
    one to its evaluator unchanged.  Only the constructor makes the claim,
    and its caller vouches for it.
    Any view, copy or arithmetic result of a block has ``lattice`` None
    (``__array_finalize__``), and a plain array has no ``lattice`` at
    all, so both take the per-point path."""

    def __new__(cls, pts: np.ndarray, lead: np.ndarray, last: np.ndarray):
        block = pts.view(cls)
        block.lattice = (lead, last)
        return block

    def __array_finalize__(self, obj):
        self.lattice = None


def cis(arg: np.ndarray) -> np.ndarray:
    """exp(i arg) from the real cos and sin of ``arg``."""
    out = np.empty(arg.shape, dtype=complex)
    np.cos(arg, out=out.real)
    np.sin(arg, out=out.imag)
    return out


def whole_number(x, name: str, least: int) -> int:
    """``x`` as an int >= ``least``: integers, numpy integers and integral
    floats (4, 4.0) pass; 2.7, NaN, infinities and bools do not."""
    if isinstance(x, bool) or not (isinstance(x, numbers.Real) and float(x).is_integer()):
        raise ValidationError(f"{name} must be an integer, got {x!r}")
    if x < least:
        raise ValidationError(f"{name} must be >= {least}, got {x!r}")
    return int(x)


def positive_sigma(sigma) -> float:
    """``sigma`` as a float, or ValidationError unless it is a positive,
    finite smoothing scale (a bool is not one)."""
    if isinstance(sigma, bool):
        raise ValidationError(f"sigma must be a number, got {sigma!r}")
    sigma = float(sigma)
    if not (sigma > 0 and np.isfinite(sigma)):
        raise ValidationError(f"sigma must be positive, got {sigma!r}")
    return sigma


def gaussian_mollify_cf(cf: CharFn, sigma: float) -> CharFn:
    """CF of the law smoothed by an independent N_d(0, sigma^2 I):
    t -> chi(t) exp(-sigma^2 <t,t> / 2), real when chi is.

    The Gaussian factor dominates, so the result is always integrable.
    """
    sigma = positive_sigma(sigma)
    half_var = 0.5 * sigma * sigma

    def ev(pts: np.ndarray) -> np.ndarray:
        return cf.batch_eval(pts) * np.exp(-half_var * np.einsum("ni,ni->n", pts, pts))

    return CharFn(cf.d, ev, "yes", "gaussian_mollified")
