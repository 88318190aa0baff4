"""Density computation from characteristic functions.

Two integral formulas are evaluated by truncated trapezoid quadrature on
a tensor-product frequency lattice:

- smoothed density (smoothing scale sigma > 0):
      g_sigma(z) = (2 pi)^-d * integral chi(y) exp(-i<z,y> - sigma^2 <y,y>/2) dy
- direct inversion (requires an integrable CF):
      g(z)       = (2 pi)^-d * integral chi(y) exp(-i<z,y>) dy

Truncation boxes come either from the Gaussian damping factor
(``truncation_radius``) or, for direct inversion, from scanning the decay
of |chi| itself.  In automatic mode the per-axis node count is also scaled
so the node spacing h keeps the spectral alias period 2 pi / h at least
``ALIAS_PERIOD``; the recovered density then wraps around only at a
distance where unit-scale laws carry negligible mass.  Pointwise and grid
evaluations share one quadrature plan, which is what makes them agree to
far better than the documented 1e-10 contract.

Trapezoid on a symmetric lattice is the right rule here: the integrand
decays to zero at the box ends, so the Euler-Maclaurin boundary terms
vanish and the only real error sources are box truncation and aliasing.

The weighted lattice is contracted one axis at a time onto the z axes
(pointwise evaluations are one-point axes).  Each contraction
sum_k W_k exp(-i z_a y_k) takes one of three forms, chosen from the array
shapes alone:

- factored: axes longer than ``_FACTOR_THRESHOLD`` nodes (the decay-scan
  lattices of slowly decaying CFs such as Laplace) split k = q K + s so
  the inner sum is one BLAS-sized matrix product;
- chirp-z: otherwise, when the array is a vector (a 1-d lattice) and the
  z axis has more than one point (every other 1-d grid), the sum is a
  Bluestein chirp-z transform, an FFT convolution of length m + n - 1
  instead of an (n x m) matrix of complex exponentials;
- direct: everything else, i.e. every axis of a 2-d or 3-d lattice and
  one-point axes, multiplies by blocks of that phase matrix.  On the
  batched 3-d axes the matrix product dominates and the chirp-z form was
  measured 4-5x slower; between a vector and those, it is unmeasured.

The choice depends on the lattice dimension, not on how many z points an
array carries, so splitting a grid across workers never changes it.
Grid workers split the first z axis across threads, except on 1-d grids
that take the chirp-z form, whose values depend on the axis length.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import erfcinv

from .charfn import CharFn
from .errors import NumericFailure, ValidationError
from .grids import DensityField, Grid, MollificationParams, NORMALIZATION_WINDOW

# Alias period floor for automatic node selection (see module docstring).
ALIAS_PERIOD = 64.0
# Hard cap on total lattice nodes; beyond this the tensor quadrature is
# hopeless and the caller must reconfigure.
NODE_BUDGET = 1 << 24
# invert_density_at output may exceed the |chi| L1 certificate by at most this.
BOUND_SLACK = 1e-6
# Default dimension cap; tensor cost grows as m^d.
MAX_DIM = 3

_SCAN_PROBES = 33
_SCAN_MAX_RADIUS = 2.0**26
_FACTOR_THRESHOLD = 16384
_PHASE_BLOCK = 1 << 22  # complex temporaries capped near 64 MiB


def truncation_radius(sigma: float, tail_tol: float, d: int) -> float:
    """Box half-width R with (2 pi)^-d * integral over {||y||_inf > R} of
    exp(-sigma^2 ||y||^2 / 2) dy <= tail_tol.

    Uses the per-axis Gaussian tail erfc(sigma R / sqrt(2)) and a union
    bound over the d axes, solved in closed form with erfcinv.  Returns
    the sentinel 1.0 when the bound is vacuous (tail_tol at least the
    whole integral).  Nonincreasing in sigma, nondecreasing in 1/tail_tol.
    """
    sigma = float(sigma)
    tail_tol = float(tail_tol)
    d = int(d)
    if not (sigma > 0 and np.isfinite(sigma)):
        raise ValidationError(f"sigma must be positive, got {sigma!r}")
    if not (tail_tol > 0):
        raise ValidationError(f"tail_tol must be positive, got {tail_tol!r}")
    if d < 1:
        raise ValidationError(f"dimension must be >= 1, got {d}")
    whole = (2.0 * math.pi * sigma * sigma) ** (-0.5 * d)
    if tail_tol >= whole:
        return 1.0
    arg = tail_tol / (d * whole)
    r = math.sqrt(2.0) / sigma * float(erfcinv(min(arg, 1.0)))
    return max(r, 1.0)


# ---------------------------------------------------------------------------
# Quadrature plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadPlan:
    """Per-axis trapezoid nodes and weights on [-R_j, R_j]."""

    radii: tuple[float, ...]
    nodes: tuple[np.ndarray, ...]
    weights: tuple[np.ndarray, ...]

    @property
    def d(self) -> int:
        return len(self.nodes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(y) for y in self.nodes)

    @property
    def total_nodes(self) -> int:
        return int(np.prod(self.shape))


def _even_ceil(x: float) -> int:
    n = math.ceil(x)
    return n if n % 2 == 0 else n + 1


def _alias_nodes(radius: float) -> int:
    return _even_ceil(radius * ALIAS_PERIOD / math.pi)


def _axis_rule(radius: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    y = np.linspace(-radius, radius, m)
    h = 2.0 * radius / (m - 1)
    w = np.full(m, h)
    w[0] = w[-1] = 0.5 * h
    return y, w


def _check_dim(d: int, params: MollificationParams) -> None:
    if d > MAX_DIM and not params.allow_high_dim:
        raise ValidationError(
            f"dimension {d} exceeds the default cap {MAX_DIM}; "
            "set allow_high_dim=True to override (cost grows as m^d)"
        )


def _budget_check(plan_shape: tuple[int, ...]) -> None:
    total = float(np.prod([float(m) for m in plan_shape]))
    if total > NODE_BUDGET:
        raise NumericFailure(
            f"quadrature lattice {plan_shape} needs {total:.3g} nodes, over the "
            f"budget of {NODE_BUDGET}; the CF decays too slowly for this "
            "dimension (supply an explicit truncation_radius or loosen tail_tol)"
        )


def _build_plan(radii: list[float], params: MollificationParams, auto: bool) -> QuadPlan:
    ms = []
    for r in radii:
        m = params.nodes_per_axis
        if auto:
            m = max(m, _alias_nodes(r))
        ms.append(m)
    _budget_check(tuple(ms))
    rules = [_axis_rule(r, m) for r, m in zip(radii, ms)]
    return QuadPlan(
        radii=tuple(radii),
        nodes=tuple(y for y, _ in rules),
        weights=tuple(w for _, w in rules),
    )


def _plan_mollified(d: int, sigma: float, params: MollificationParams) -> QuadPlan:
    if params.truncation_radius is not None:
        return _build_plan([params.truncation_radius] * d, params, auto=False)
    r = truncation_radius(sigma, params.tail_tol, d)
    return _build_plan([r] * d, params, auto=True)


def _scan_directions(d: int) -> list[np.ndarray]:
    dirs = [np.eye(d)[j] for j in range(d)]
    if d > 1:
        # diagonals catch CFs whose slowest decay is off-axis
        # (correlated Gaussians); -u is redundant by Hermitian symmetry
        for signs in itertools.product((1.0, -1.0), repeat=d - 1):
            dirs.append(np.array((1.0,) + signs) / math.sqrt(d))
    return dirs


def _decay_radii(cf: CharFn, tail_tol: float) -> list[float]:
    """Per-axis truncation half-widths from the decay of |chi|.

    Each direction is scanned outward in doubling windows [r/2, r] until
    the window maximum of |chi| drops below tail_tol, then doubled.  A CF
    that never decays (atoms, or a wrongly declared flag) is rejected.
    """
    need = np.zeros(cf.d)
    for u in _scan_directions(cf.d):
        r = 1.0
        while True:
            radii = np.linspace(0.5 * r, r, _SCAN_PROBES)
            pts = radii[:, None] * u[None, :]
            if float(np.max(np.abs(cf.batch_eval(pts)))) < tail_tol:
                break
            r *= 2.0
            if r > _SCAN_MAX_RADIUS:
                raise ValidationError(
                    "characteristic function shows no decay out to radius "
                    f"{_SCAN_MAX_RADIUS:g} along direction {u}; it does not "
                    "look integrable (check the integrability declaration)"
                )
        need = np.maximum(need, r * np.abs(u))
    return [2.0 * float(x) for x in need]


def _plan_inversion(cf: CharFn, params: MollificationParams) -> QuadPlan:
    if params.truncation_radius is not None:
        return _build_plan([params.truncation_radius] * cf.d, params, auto=False)
    return _build_plan(_decay_radii(cf, params.tail_tol), params, auto=True)


# ---------------------------------------------------------------------------
# Core transform
# ---------------------------------------------------------------------------

def _weight_tensor(cf: CharFn, plan: QuadPlan, sigma: float) -> np.ndarray:
    """chi on the node lattice times quadrature weights and, when sigma > 0,
    the Gaussian damping, as per-axis factors."""
    shape = plan.shape
    mesh = np.meshgrid(*plan.nodes, indexing="ij")
    pts = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    w = np.asarray(cf.batch_eval(pts), dtype=complex).reshape(shape)
    for j in range(plan.d):
        factor = plan.weights[j]
        if sigma > 0.0:
            factor = factor * np.exp(-0.5 * sigma * sigma * plan.nodes[j] ** 2)
        w *= factor.reshape([-1 if a == j else 1 for a in range(plan.d)])
    return w


def _takes_chirp(t: np.ndarray, n_z: int) -> bool:
    """Whether ``_contract_axis`` uses the chirp-z form: ``t`` is a vector
    (a 1-d lattice) short of the factored form, contracted onto more than
    one point."""
    return t.ndim == 1 and len(t) <= _FACTOR_THRESHOLD and n_z > 1


def _contract_axis(t: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Contract axis 0 of ``t`` (length m) against phases exp(-i z_a y_k);
    the new z axis is appended last.  ``y`` and ``z`` are uniform axes.
    The form (chirp-z, direct phase matrix, or factored k = q*K + s for
    long axes) follows from the shapes; see the module docstring."""
    m = len(y)
    if _takes_chirp(t, len(z)):
        return _chirp_contract(t, y, z)
    if m <= _FACTOR_THRESHOLD:
        out_blocks = []
        step = max(1, _PHASE_BLOCK // m)
        for lo in range(0, len(z), step):
            phases = np.exp(-1j * np.outer(z[lo : lo + step], y))
            out_blocks.append(np.tensordot(t, phases, axes=([0], [1])))
        return np.concatenate(out_blocks, axis=-1) if len(out_blocks) > 1 else out_blocks[0]

    k_inner = 4096
    q_outer = -(-m // k_inner)
    h = y[1] - y[0]
    pad = q_outer * k_inner - m
    if pad:
        t = np.concatenate([t, np.zeros((pad,) + t.shape[1:], dtype=t.dtype)], axis=0)
    t2 = t.reshape((q_outer, k_inner) + t.shape[1:])
    out_blocks = []
    step = max(1, _PHASE_BLOCK // (k_inner + q_outer))
    for lo in range(0, len(z), step):
        zb = z[lo : lo + step]
        inner_ph = np.exp(-1j * np.outer(zb, h * np.arange(k_inner)))
        outer_ph = np.exp(-1j * np.outer(zb, y[0] + h * k_inner * np.arange(q_outer)))
        partial = np.tensordot(t2, inner_ph, axes=([1], [1]))  # (q, rest..., nz)
        out_blocks.append(np.einsum("q...a,aq->...a", partial, outer_ph))
    return np.concatenate(out_blocks, axis=-1) if len(out_blocks) > 1 else out_blocks[0]


def _chirp(theta: float, length: int) -> np.ndarray:
    """exp(i theta j^2 / 2) for j = 0 .. length - 1.

    theta j^2 reaches 1e5 rad on coarse axes, where rounding the product
    would cost 1e-11 in phase.  theta is split into a head whose product
    with j^2 is exact in double precision (``exp`` reduces an exact
    argument correctly) and a tail whose product is tiny.
    """
    jj = np.arange(length) ** 2
    bits = 53 - int(jj[-1]).bit_length()
    exp2 = math.frexp(theta)[1] - bits
    head = math.ldexp(round(math.ldexp(theta, -exp2)), exp2)
    return np.exp(0.5j * head * jj) * np.exp(0.5j * (theta - head) * jj)


def _chirp_contract(t: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Bluestein chirp-z form of ``_contract_axis``.

    With y_k = y_0 + k h, z_a = z_0 + a dz and theta = h dz, the identity
    a k = (a^2 + k^2 - (a - k)^2) / 2 turns the sum into
        exp(-i z_a y_0 - i theta a^2 / 2)
          * sum_k [t_k exp(-i z_0 k h - i theta k^2 / 2)] exp(i theta (a - k)^2 / 2),
    a linear convolution with a chirp, done by FFT on m + n - 1 points.
    """
    m, n = len(y), len(z)
    h = (y[-1] - y[0]) / (m - 1)
    chirp = _chirp(h * (z[-1] - z[0]) / (n - 1), max(m, n))
    size = 1 << (m + n - 2).bit_length()
    kernel = np.zeros(size, dtype=complex)
    kernel[:n] = chirp[:n]
    kernel[size - m + 1 :] = chirp[m - 1 : 0 : -1]
    batch = (-1,) + (1,) * (t.ndim - 1)
    pre = np.exp(-1j * z[0] * h * np.arange(m)) * chirp[:m].conj()
    spec = np.fft.fft(t * pre.reshape(batch), size, axis=0) * np.fft.fft(kernel).reshape(batch)
    post = np.exp(-1j * z * y[0]) * chirp[:n].conj()
    return np.moveaxis(np.fft.ifft(spec, axis=0)[:n] * post.reshape(batch), 0, -1)


def _transform_lattice(w: np.ndarray, plan: QuadPlan, z_axes: list[np.ndarray]) -> np.ndarray:
    """Sum_y W(y) exp(-i<z,y>) for z on the tensor lattice of z_axes;
    returns an array of shape (len(z_1), ..., len(z_d))."""
    t = w
    for j, z in enumerate(z_axes):
        t = _contract_axis(t, plan.nodes[j], np.asarray(z, dtype=float))
    return t


def _check_imag(im_max: float, tail_tol: float, absmass: float) -> None:
    combined = tail_tol + 1e-12 * max(1.0, absmass)
    if im_max > 100.0 * combined:
        raise NumericFailure(
            f"imaginary residue {im_max:g} exceeds {100.0 * combined:g}; the "
            "CharFn is not Hermitian-symmetric (broken evaluator)"
        )


def _apply_negativity_policy(values: np.ndarray, tol: float) -> np.ndarray:
    """Clamp quadrature ripple in [-tol, 0) to zero; larger negativity means
    misconfiguration, not mathematics, and is a hard error."""
    vmin = float(values.min())
    if vmin < -tol:
        raise NumericFailure(
            f"density value {vmin:g} below -{tol:g}; increase the node count "
            "or truncation radius, or check the CharFn"
        )
    return np.maximum(values, 0.0)


def _scaled_transform(
    cf: CharFn,
    plan: QuadPlan,
    sigma: float,
    tail_tol: float,
    z_axes: list[np.ndarray],
    workers: int = 1,
) -> tuple[np.ndarray, float]:
    """Real part of the (2 pi)^-d scaled transform on the tensor lattice of
    ``z_axes`` plus the |chi| L1 quadrature mass; checks the Hermitian
    imaginary residue.  Pointwise calls pass one-point axes.

    With ``workers > 1`` the first z axis is split across threads, unless
    it takes the chirp-z form (1-d grids): a chunk's chirp and FFT length
    depend on its length, so splitting would change the values in the last
    bits.
    """
    w = _weight_tensor(cf, plan, sigma)
    scale = (2.0 * math.pi) ** (-cf.d)
    absmass = scale * float(np.sum(np.abs(w)))
    first = np.asarray(z_axes[0], dtype=float)
    if workers > 1 and len(first) >= 2 * workers and not _takes_chirp(w, len(first)):
        chunks = np.array_split(first, workers)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(
                pool.map(lambda c: _transform_lattice(w, plan, [c, *z_axes[1:]]), chunks)
            )
        raw = np.concatenate(parts, axis=0)
    else:
        raw = _transform_lattice(w, plan, z_axes)
    raw = raw * scale
    _check_imag(float(np.max(np.abs(raw.imag))), tail_tol, absmass)
    return np.ascontiguousarray(raw.real), absmass


def _as_point(z, d: int) -> np.ndarray:
    p = np.atleast_1d(np.asarray(z, dtype=float))
    if p.shape != (d,):
        raise ValidationError(f"point must have shape ({d},), got {p.shape}")
    return p


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def mollified_density_at(
    cf: CharFn,
    sigma: float,
    z,
    params: MollificationParams | None = None,
) -> float:
    """Density of the law smoothed by N_d(0, sigma^2 I), evaluated at z."""
    sigma = float(sigma)
    if not (sigma > 0 and np.isfinite(sigma)):
        raise ValidationError(f"sigma must be positive, got {sigma!r}")
    if params is None:
        params = MollificationParams.for_dimension(cf.d, sigma=sigma)
    _check_dim(cf.d, params)
    point = _as_point(z, cf.d)
    plan = _plan_mollified(cf.d, sigma, params)
    # one-point axes: the lattice path evaluates a single point
    vals, _ = _scaled_transform(cf, plan, sigma, params.tail_tol, list(point[:, None]))
    return float(vals.item())


def mollified_density_grid(
    cf: CharFn,
    sigma: float,
    grid: Grid,
    params: MollificationParams | None = None,
    workers: int = 1,
) -> DensityField:
    """Smoothed density sampled on a grid.

    Shares the quadrature plan with ``mollified_density_at``, so lattice
    values match the pointwise ones to rounding.  Values are clamped or
    rejected by the negativity policy and the Riemann sum must come out
    within 1e-3 of 1, else the grid window or quadrature is inadequate
    and a NumericFailure is raised.
    """
    sigma = float(sigma)
    if not (sigma > 0 and np.isfinite(sigma)):
        raise ValidationError(f"sigma must be positive, got {sigma!r}")
    if grid.d != cf.d:
        raise ValidationError(f"grid dimension {grid.d} != CF dimension {cf.d}")
    if params is None:
        params = MollificationParams.for_dimension(cf.d, sigma=sigma)
    _check_dim(cf.d, params)
    plan = _plan_mollified(cf.d, sigma, params)
    z_axes = [grid.axis_points(j) for j in range(grid.d)]
    vals, _ = _scaled_transform(
        cf, plan, sigma, params.tail_tol, z_axes=z_axes, workers=workers
    )
    vals = _apply_negativity_policy(vals.reshape(-1), params.negativity_tol)
    total = float(np.sum(vals) * grid.cell_volume)
    if abs(total - 1.0) > NORMALIZATION_WINDOW:
        raise NumericFailure(
            f"grid Riemann sum {total:.6g} outside 1 +- {NORMALIZATION_WINDOW:g}; "
            "enlarge the grid window, the truncation radius, or nodes_per_axis"
        )
    return DensityField(grid=grid, values=vals, normalized=True)


def _require_integrable(cf: CharFn, allow_unknown: bool) -> None:
    if cf.integrable == "no":
        raise ValidationError(
            "CF is not integrable (the law carries atoms, e.g. point masses); "
            "direct inversion has no density to recover"
        )
    if cf.integrable == "unknown" and not allow_unknown:
        raise ValidationError(
            "CF integrability is unknown; pass allow_unknown_integrability=True "
            "to run the inversion anyway"
        )


def invert_density_at(
    cf: CharFn,
    z,
    params: MollificationParams | None = None,
    allow_unknown_integrability: bool = False,
) -> float:
    """Density recovered from an integrable CF at the point z.

    The result is certified against the |chi| L1 quadrature bound computed
    on the same nodes: values above it (plus slack) or below the
    negativity tolerance raise NumericFailure.
    """
    _require_integrable(cf, allow_unknown_integrability)
    if params is None:
        params = MollificationParams.for_dimension(cf.d)
    _check_dim(cf.d, params)
    point = _as_point(z, cf.d)
    plan = _plan_inversion(cf, params)
    # one-point axes: the lattice path evaluates a single point
    vals, bound = _scaled_transform(cf, plan, 0.0, params.tail_tol, list(point[:, None]))
    val = float(vals.item())
    if val < -params.negativity_tol:
        raise NumericFailure(
            f"inverted density {val:g} below -{params.negativity_tol:g} at z={point}"
        )
    if val > bound + BOUND_SLACK:
        raise NumericFailure(
            f"inverted density {val:g} exceeds the L1 certificate {bound:g} + {BOUND_SLACK:g}"
        )
    return val


def invert_density_grid(
    cf: CharFn,
    grid: Grid,
    params: MollificationParams | None = None,
    allow_unknown_integrability: bool = False,
    workers: int = 1,
) -> DensityField:
    """Direct-inversion density on a grid (the batched form of
    ``invert_density_at``).

    Unlike the smoothed grid, no mass window is enforced: a deliberately
    partial window is legitimate here, so the normalization claim is
    simply recorded as observed.
    """
    _require_integrable(cf, allow_unknown_integrability)
    if grid.d != cf.d:
        raise ValidationError(f"grid dimension {grid.d} != CF dimension {cf.d}")
    if params is None:
        params = MollificationParams.for_dimension(cf.d)
    _check_dim(cf.d, params)
    plan = _plan_inversion(cf, params)
    z_axes = [grid.axis_points(j) for j in range(grid.d)]
    vals, bound = _scaled_transform(
        cf, plan, 0.0, params.tail_tol, z_axes=z_axes, workers=workers
    )
    vals = _apply_negativity_policy(vals.reshape(-1), params.negativity_tol)
    vmax = float(vals.max())
    if vmax > bound + BOUND_SLACK:
        raise NumericFailure(
            f"inverted density {vmax:g} exceeds the L1 certificate {bound:g} + {BOUND_SLACK:g}"
        )
    total = float(np.sum(vals) * grid.cell_volume)
    return DensityField(
        grid=grid, values=vals, normalized=abs(total - 1.0) <= NORMALIZATION_WINDOW
    )


def cf_l1_bound(
    cf: CharFn,
    params: MollificationParams | None = None,
    allow_unknown_integrability: bool = False,
) -> float:
    """Truncated quadrature estimate of (2 pi)^-d * integral |chi| d lambda^d.

    This constant bounds every value the inversion can produce, so it acts
    as a sup certificate for ``invert_density_at`` outputs.
    """
    _require_integrable(cf, allow_unknown_integrability)
    if params is None:
        params = MollificationParams.for_dimension(cf.d)
    _check_dim(cf.d, params)
    plan = _plan_inversion(cf, params)
    w = _weight_tensor(cf, plan, 0.0)
    return (2.0 * math.pi) ** (-cf.d) * float(np.sum(np.abs(w)))
