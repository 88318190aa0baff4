"""Density computation from characteristic functions.

One integral, keyed by the smoothing scale sigma >= 0, is evaluated by
truncated trapezoid quadrature on a tensor-product frequency lattice:

      g_sigma(z) = (2 pi)^-d * integral chi(y) exp(-i<z,y> - sigma^2 <y,y>/2) dy

sigma > 0 gives the density of the law smoothed by N_d(0, sigma^2 I);
sigma = 0 is direct inversion, the density itself, which requires an
integrable CF.  Both run on one path (``_density``): plan, transform,
checks.  The only difference is where the truncation box comes from: the
Gaussian damping factor (``truncation_radius``) when sigma > 0, and a scan
of the decay of |chi| itself when sigma = 0.  In automatic mode the
per-axis node count is also scaled so the node spacing h keeps the
spectral alias period 2 pi / h at least ``ALIAS_PERIOD``; the recovered
density then wraps around only at a distance where unit-scale laws carry
negligible mass.  Pointwise and grid
evaluations share one quadrature plan, which is what makes them agree to
far better than the documented 1e-10 contract.

Trapezoid on a symmetric lattice is the right rule here: the integrand
decays to zero at the box ends, so the Euler-Maclaurin boundary terms
vanish and the only real error sources are box truncation and aliasing.

The weighted lattice is contracted one axis at a time onto the z axes
(pointwise evaluations are one-point axes).  Each contraction
sum_k W_k exp(-i z_a y_k) takes one of two forms, chosen from the array
shape alone:

- row split: a vector (a 1-d lattice) is cut into rows of
  K = min(m, 4096) nodes, k = q K + s.  The inner sums over s for all rows
  are one matrix-vector product on a one-point z axis, and otherwise one
  batched Bluestein chirp-z transform, an FFT convolution of length
  K + n - 1 instead of an (n x m) matrix of complex exponentials.  The
  rows are then added with their phases exp(-i z_a y_{qK}).  Keeping s
  below 4096 keeps the inner phases accurate on the 1.3M-node decay-scan
  lattices of slowly decaying CFs such as Laplace;
- phase matrix: every other array, i.e. each axis of a 2-d or 3-d
  lattice, multiplies by blocks of the matrix exp(-i z_a y_k).  On the
  batched 3-d axes the matrix product dominates and the chirp-z form was
  measured 4-5x slower.

The form depends on the lattice dimension alone, never on the worker
count.  Every density value, pointwise or on a grid, then passes the
same checks: the negativity policy and the |chi| L1 certificate.

The lattice is walked in slabs of axis-0 rows whose bounds depend on the
lattice shape alone, so a 2-d or 3-d lattice is never held whole.  Each
slab is evaluated, weighted and contracted by itself, and the partial
sums are added in slab order; the checks run on the summed result.  Grid
workers take slabs from a thread pool, so values are the same on any
worker count.  A 1-d lattice is one slab and runs on one thread.  chi
fills each preallocated slab in blocks of ``_EVAL_BLOCK`` points built in
one reused buffer, so no slab builds a meshgrid or a stacked point array,
and an evaluator's temporaries (an ``Empirical`` law's atom chunks among
them) are sized by the block, not the slab.
"""

from __future__ import annotations

import functools
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator

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
# A density value may exceed the |chi| L1 certificate by at most this.
BOUND_SLACK = 1e-6
# Default dimension cap; tensor cost grows as m^d.
MAX_DIM = 3

_SCAN_PROBES = 33
_SCAN_MAX_RADIUS = 2.0**26
_PHASE_BLOCK = 1 << 22  # complex temporaries capped near 64 MiB
# Lattice points per chi evaluation: each slab is filled block by block, so
# the evaluator's temporaries stay small and warm in cache.
_EVAL_BLOCK = 1 << 14
# Slabs of a 2-d or 3-d lattice: at most this many nodes, and at least
# _MIN_SLABS slabs where the rows allow, so a 512^2 lattice still spreads
# over the workers.
_SLAB_NODES = 1 << 18
_MIN_SLABS = 8


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


def _plan(cf: CharFn, sigma: float, params: MollificationParams) -> QuadPlan:
    """The lattice for scale sigma.  An explicit radius is used as given;
    otherwise sigma > 0 takes the erfc radius of the Gaussian damping and
    sigma = 0 (inversion) the decay scan of |chi|."""
    if params.truncation_radius is not None:
        return _build_plan([params.truncation_radius] * cf.d, params, auto=False)
    if sigma > 0.0:
        radii = [truncation_radius(sigma, params.tail_tol, cf.d)] * cf.d
    else:
        radii = _decay_radii(cf, params.tail_tol)
    return _build_plan(radii, params, auto=True)


# ---------------------------------------------------------------------------
# Core transform
# ---------------------------------------------------------------------------

def _slabs(shape: tuple[int, ...]) -> list[tuple[int, int]]:
    """Row ranges [lo, hi) of lattice axis 0 for the slab walk (see
    ``_SLAB_NODES``); a 1-d lattice is one slab.  The ranges depend on the
    lattice shape alone, so the values never depend on the worker count."""
    m0 = shape[0]
    if len(shape) == 1:
        return [(0, m0)]
    rows = max(1, min(_SLAB_NODES // math.prod(shape[1:]), -(-m0 // _MIN_SLABS)))
    return [(lo, min(lo + rows, m0)) for lo in range(0, m0, rows)]


def _weight_tensor(cf: CharFn, plan: QuadPlan, sigma: float, lo: int, hi: int) -> np.ndarray:
    """chi on rows [lo, hi) of the node lattice times quadrature weights and,
    when sigma > 0, the Gaussian damping, as per-axis factors.

    chi fills a preallocated slab in blocks of about ``_EVAL_BLOCK`` points.
    A 1-d block is a slice of the nodes.  Otherwise a block is whole rows
    along the last axis, written into one reused point buffer whose last
    coordinate is set once.
    """
    nodes = (plan.nodes[0][lo:hi],) + plan.nodes[1:]
    shape = tuple(len(y) for y in nodes)
    w = np.empty(shape, dtype=complex)
    flat = w.reshape(-1)
    if plan.d == 1:
        y = nodes[0][:, None]
        for a in range(0, len(y), _EVAL_BLOCK):
            flat[a : a + _EVAL_BLOCK] = cf.batch_eval(y[a : a + _EVAL_BLOCK])
    else:
        last, rows = shape[-1], math.prod(shape[:-1])
        step = max(1, _EVAL_BLOCK // last)
        buf = np.empty((min(step, rows), last, plan.d))
        buf[..., -1] = nodes[-1]
        for r in range(0, rows, step):
            lead = np.unravel_index(np.arange(r, min(r + step, rows)), shape[:-1])
            n = len(lead[0])
            for j, idx in enumerate(lead):
                buf[:n, :, j] = nodes[j][idx, None]
            flat[r * last : (r + n) * last] = cf.batch_eval(buf[:n].reshape(-1, plan.d))
    for j in range(plan.d):
        factor = plan.weights[j]
        if sigma > 0.0:
            factor = factor * np.exp(-0.5 * sigma * sigma * plan.nodes[j] ** 2)
        if j == 0:
            factor = factor[lo:hi]
        w *= factor.reshape([-1 if a == j else 1 for a in range(plan.d)])
    return w


def _weighted_slab(
    cf: CharFn, plan: QuadPlan, sigma: float, lo: int, hi: int
) -> tuple[np.ndarray, float]:
    """W on rows [lo, hi) of the lattice and its unscaled sum of |W|."""
    w = _weight_tensor(cf, plan, sigma, lo, hi)
    return w, float(np.sum(np.abs(w)))


def _contract_axis(t: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Contract axis 0 of ``t`` (length m) against phases exp(-i z_a y_k);
    the new z axis is appended last.  ``y`` and ``z`` are uniform axes.
    A vector (a 1-d lattice) takes the row split of ``_vector_contract``;
    every other array multiplies by blocks of the phase matrix (see the
    module docstring)."""
    if t.ndim == 1:
        return _vector_contract(t, y, z)
    out_blocks = []
    step = max(1, _PHASE_BLOCK // len(y))
    for lo in range(0, len(z), step):
        phases = np.exp(-1j * np.outer(z[lo : lo + step], y))
        out_blocks.append(np.tensordot(t, phases, axes=([0], [1])))
    return np.concatenate(out_blocks, axis=-1) if len(out_blocks) > 1 else out_blocks[0]


def _rows(t: np.ndarray, k: int, lo: int, hi: int) -> np.ndarray:
    """Rows [lo, hi) of axis 0 of ``t`` cut into rows of k nodes, shape
    (hi - lo, k, rest...): a view when they are whole, else a copy of these
    rows alone with the last one zero-padded."""
    seg = t[lo * k : hi * k]
    shape = (hi - lo, k) + t.shape[1:]
    if len(seg) == (hi - lo) * k:
        return seg.reshape(shape)
    out = np.zeros(shape, dtype=t.dtype)
    out.reshape((-1,) + t.shape[1:])[: len(seg)] = seg
    return out


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


def _fft_size(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n; numpy's FFT runs such lengths about twice
    as fast as the next power of two when that is much longer."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _vector_contract(t: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``_contract_axis`` for a vector ``t``.  The axis is cut into rows of
    K = min(m, 4096) nodes, k = q K + s, so the phase of node k is
    z_a y_{qK} + z_a h s and
        sum_k t_k exp(-i z_a y_k) = sum_q exp(-i z_a y_{qK}) sum_s t[q K + s] exp(-i z_a h s).
    s stays below 4096, so the inner phases stay accurate on any axis
    length.  h comes from the endpoints: on an axis reaching 65536,
    y[1] - y[0] is off by up to 1.5e-11, which s < 4096 and |z| ~ 6 turn
    into phase errors near 1e-7.

    On one point the inner sums are one matrix-vector product with the
    phase row exp(-i z_0 h s); whole rows are a view, and the last partial
    row (if any) is padded alone.  On n > 1 points, with z_a = z_0 + a dz
    and theta = h dz, the identity a s = (a^2 + s^2 - (a - s)^2) / 2 turns
    the inner sum into
        exp(-i theta a^2 / 2)
          * sum_s [t_s exp(-i z_0 s h - i theta s^2 / 2)] exp(i theta (a - s)^2 / 2),
    a linear convolution with one chirp, done by FFT on K + n - 1 points
    for every row at once (Bluestein).  Rows go through in groups whose FFT
    temporaries hold at most ``_PHASE_BLOCK`` elements, and the groups are
    added in row order; only the last partial row is padded.
    """
    m, n = len(y), len(z)
    k = min(m, 4096)
    q = -(-m // k)
    h = (y[-1] - y[0]) / (m - 1)
    starts = y[::k]
    inner_ph = np.exp(-1j * z[0] * h * np.arange(k))
    if n == 1:
        pieces = (_rows(t, k, 0, m // k), _rows(t, k, m // k, q))
        inner = np.concatenate([p @ inner_ph for p in pieces])
        return _outer_sum(inner[:, None], starts, z)
    chirp = _chirp(h * (z[-1] - z[0]) / (n - 1), max(k, n))
    size = _fft_size(k + n - 1)
    kernel = np.zeros(size, dtype=complex)
    kernel[:n] = chirp[:n]
    kernel[size - k + 1 :] = chirp[k - 1 : 0 : -1]
    kernel = np.fft.fft(kernel)
    pre = inner_ph * chirp[:k].conj()
    rows = max(1, _PHASE_BLOCK // size)
    out = np.zeros(n, dtype=complex)
    for lo in range(0, q, rows):
        spec = np.fft.fft(_rows(t, k, lo, min(lo + rows, q)) * pre, size)
        spec *= kernel
        out += _outer_sum(np.fft.ifft(spec)[:, :n], starts[lo : lo + rows], z)
    return out * chirp[:n].conj()


def _outer_sum(inner: np.ndarray, starts: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_q inner[q, a] exp(-i starts_q z_a).  The phases are written as
    cos and -sin into one array: the same values as the complex exp, and
    faster."""
    arg = np.outer(starts, z)
    outer = np.empty(arg.shape, dtype=complex)
    np.cos(arg, out=outer.real)
    np.sin(arg, out=outer.imag)
    np.negative(outer.imag, out=outer.imag)
    return np.einsum("qa,qa->a", inner, outer)


def _check_imag(im_max: float, tail_tol: float, absmass: float) -> None:
    combined = tail_tol + 1e-12 * max(1.0, absmass)
    if im_max > 100.0 * combined:
        raise NumericFailure(
            f"imaginary residue {im_max:g} exceeds {100.0 * combined:g}; the "
            "CharFn is not Hermitian-symmetric (broken evaluator)"
        )


def _certify(values: np.ndarray, bound: float, tol: float) -> np.ndarray:
    """The checks every density value passes, pointwise or on a grid.

    A value that is not finite means a broken evaluator.  Quadrature ripple
    in [-tol, 0) is clamped to zero; larger negativity means
    misconfiguration, not mathematics, and is a hard error.  No value may
    exceed ``bound``, the |chi| L1 quadrature mass on the same nodes, by
    more than ``BOUND_SLACK``.
    """
    if not np.all(np.isfinite(values)):
        raise NumericFailure("density values are not finite; check the CharFn")
    vmin = float(values.min())
    if vmin < -tol:
        raise NumericFailure(
            f"density value {vmin:g} below -{tol:g}; increase the node count "
            "or truncation radius, or check the CharFn"
        )
    vmax = float(values.max())
    if vmax > bound + BOUND_SLACK:
        raise NumericFailure(
            f"density value {vmax:g} exceeds the L1 certificate {bound:g} + {BOUND_SLACK:g}"
        )
    return np.maximum(values, 0.0)


def _slab_transform(
    cf: CharFn, plan: QuadPlan, sigma: float, z_axes: list[np.ndarray], lo: int, hi: int
) -> tuple[np.ndarray, float]:
    """Sum over rows [lo, hi) of W(y) exp(-i<z,y>) on the z lattice, plus the
    slab's sum of |W|.  Axes d-1 .. 1 are contracted first and the slab's
    axis-0 nodes last, so the slabs together cost what one lattice would."""
    t, mass = _weighted_slab(cf, plan, sigma, lo, hi)
    for j in reversed(range(plan.d)):
        y = plan.nodes[j][lo:hi] if j == 0 else plan.nodes[j]
        t = _contract_axis(np.moveaxis(t, j, 0), y, z_axes[j])
    return t.transpose(), mass


def _run_jobs(jobs: list, workers: int) -> Iterator:
    """Results of ``jobs`` in order, computed on at most ``workers`` threads.
    They are yielded as they complete, so a caller that folds them holds
    only the few that are done but not yet consumed."""
    n = min(workers, len(jobs))
    if n == 1:
        yield from (job() for job in jobs)
        return
    with ThreadPoolExecutor(max_workers=n) as pool:
        yield from pool.map(lambda job: job(), jobs)


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

    The lattice is walked in the slabs of ``_slabs`` on up to ``workers``
    threads, and the partial sums are added in slab order.  A 1-d lattice
    is one slab, so it runs on one thread.
    """
    z_axes = [np.asarray(z, dtype=float) for z in z_axes]
    jobs = [
        functools.partial(_slab_transform, cf, plan, sigma, z_axes, lo, hi)
        for lo, hi in _slabs(plan.shape)
    ]
    raw, mass = None, 0.0
    for part, slab_mass in _run_jobs(jobs, workers):
        raw = part if raw is None else raw + part
        mass += slab_mass
    scale = (2.0 * math.pi) ** (-cf.d)
    absmass = scale * mass
    raw = raw * scale
    _check_imag(float(np.max(np.abs(raw.imag))), tail_tol, absmass)
    return np.ascontiguousarray(raw.real), absmass


def _setup(
    cf: CharFn, sigma: float, params: MollificationParams | None
) -> tuple[MollificationParams, QuadPlan]:
    """Default params for the dimension, the dimension cap, and the plan."""
    if params is None:
        params = MollificationParams.for_dimension(cf.d, sigma=sigma)
    if cf.d > MAX_DIM and not params.allow_high_dim:
        raise ValidationError(
            f"dimension {cf.d} exceeds the default cap {MAX_DIM}; "
            "set allow_high_dim=True to override (cost grows as m^d)"
        )
    return params, _plan(cf, sigma, params)


def _density(
    cf: CharFn,
    sigma: float,
    z_axes: list[np.ndarray],
    params: MollificationParams | None,
    workers: int,
) -> np.ndarray:
    """Certified density values at scale sigma on the tensor lattice of
    ``z_axes``, flattened row-major; sigma = 0 is direct inversion."""
    if len(z_axes) != cf.d or any(np.ndim(z) != 1 for z in z_axes):
        raise ValidationError(
            f"point or grid dimension does not match the CF dimension {cf.d}"
        )
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers!r}")
    params, plan = _setup(cf, sigma, params)
    vals, bound = _scaled_transform(cf, plan, sigma, params.tail_tol, z_axes, workers)
    return _certify(vals.reshape(-1), bound, params.negativity_tol)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def mollified_density_at(
    cf: CharFn,
    sigma: float,
    z,
    params: MollificationParams | None = None,
) -> float:
    """Density of the law smoothed by N_d(0, sigma^2 I), evaluated at z.

    The value passes the grid's checks: ripple in [-negativity_tol, 0) is
    clamped to zero, and larger negativity or a value above the |chi| L1
    certificate raises NumericFailure.
    """
    sigma = float(sigma)
    if not (sigma > 0 and np.isfinite(sigma)):
        raise ValidationError(f"sigma must be positive, got {sigma!r}")
    # one-point axes: the lattice path evaluates a single point
    point = np.atleast_1d(np.asarray(z, dtype=float))
    return float(_density(cf, sigma, list(point[:, None]), params, 1).item())


def mollified_density_grid(
    cf: CharFn,
    sigma: float,
    grid: Grid,
    params: MollificationParams | None = None,
    workers: int = 1,
) -> DensityField:
    """Smoothed density sampled on a grid.

    Shares the quadrature plan with ``mollified_density_at``, so lattice
    values match the pointwise ones to rounding.  Values pass the checks
    of the pointwise ones (negativity policy and L1 certificate), and the
    Riemann sum must come out within 1e-3 of 1, else the grid window or
    quadrature is inadequate and a NumericFailure is raised.  ``workers``
    (at least 1) caps the threads, which may call ``cf.batch_eval``
    concurrently; the values do not depend on it.
    """
    sigma = float(sigma)
    if not (sigma > 0 and np.isfinite(sigma)):
        raise ValidationError(f"sigma must be positive, got {sigma!r}")
    vals = _density(cf, sigma, [grid.axis_points(j) for j in range(grid.d)], params, workers)
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
    # one-point axes: the lattice path evaluates a single point
    point = np.atleast_1d(np.asarray(z, dtype=float))
    return float(_density(cf, 0.0, list(point[:, None]), params, 1).item())


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
    simply recorded as observed.  ``workers`` (at least 1) caps the
    threads, which may call ``cf.batch_eval`` concurrently; the values
    do not depend on it.
    """
    _require_integrable(cf, allow_unknown_integrability)
    vals = _density(cf, 0.0, [grid.axis_points(j) for j in range(grid.d)], params, workers)
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
    _, plan = _setup(cf, 0.0, params)
    masses = [_weighted_slab(cf, plan, 0.0, lo, hi)[1] for lo, hi in _slabs(plan.shape)]
    return (2.0 * math.pi) ** (-cf.d) * sum(masses)
