"""Density computation from characteristic functions.

One integral, keyed by the smoothing scale sigma >= 0, is evaluated by
truncated trapezoid quadrature on a tensor-product frequency lattice:

      g_sigma(z) = (2 pi)^-d * integral chi(y) exp(-i<z,y> - sigma^2 <y,y>/2) dy

sigma > 0 gives the density of the law smoothed by N_d(0, sigma^2 I);
sigma = 0 is direct inversion, the density itself, which requires an
integrable CF.  Both run on one path (``_density``): plan, transform,
checks.  The plan is the whole quadrature rule: per-axis nodes and
trapezoid weights, into which the damping exp(-sigma^2 y^2 / 2) is
multiplied once when sigma > 0, so the transform is a pure weighted
lattice sum that never sees sigma.  The only other difference is where
the truncation box comes from: the Gaussian damping factor
(``truncation_radius``) when sigma > 0, and a scan of the decay of |chi|
itself when sigma = 0.

By Poisson summation a lattice of step h wraps the density onto the
alias period P = 2 pi / h: it reads sum_n s_n g(z + n P) over n in Z^d.
1-d lattices and sigma = 0 lattices keep one fixed period (``_plan``):
in automatic mode each axis gets the nodes for P >= ``ALIAS_PERIOD``,
where unit-scale laws carry negligible mass.  There a search would cost
more than it saves: a 1-d transform's cost is set by its chirp-z output,
not its node count, and a sigma = 0 lattice (Laplace on [-6, 6] needs
P >= 32) would pay for failed smaller pairs on a 1.3M-node axis.

Every other lattice, d >= 2 at sigma > 0, searches its period per call
(``_searched_transform``).  For a period P it runs the transform twice:
on the trapezoid lattice of m (even) nodes per axis, whose images carry
the sign s_n = (-1)^(n_1 + .. + n_d), and on its midpoint lattice, every
axis shifted by h / 2, whose images all carry +1.  Half the largest
difference of the two sums is then the sum of the odd images (odd
n_1 + .. + n_d), the lattice's alias error, and P grows by
``_PERIOD_GROWTH`` until that estimate is at most ``ALIAS_TOL``.  The
call returns the average of the accepted pair, the rule on the
body-centred lattice of both node sets, whose images are the even ones:
the nearest lie at sqrt(2) P.  The midpoint lattice is symmetric too, so
a real chi stays real on it and its blocks are lattice rows.

The first period is the window's extent plus ``_START_SIGMAS`` sigma, at
most ``ALIAS_PERIOD``.  A grid's extent is its own, since its Riemann sum
checks that it holds the law's mass.  A point says nothing about where
the mass is, so its extent is that of the smallest origin-centred box
holding it: a guess, under which a corner point of an origin-centred
grid starts where its grid does.  The box is the damping radius for
tail_tol / ``_SEARCH_TAIL``, as the half difference also holds the
endpoint term (below), which on a chi that does not decay falls only as
h^2.  An explicit ``truncation_radius`` is the box instead, and
``nodes_per_axis`` a floor on m; a box too small for the law leaves an
endpoint term that the search chases with more nodes.  Once a period's
lattice is over the node budget, the last pair tried is the fixed plan's
lattice (``_plan``: the box of tail_tol itself, P = ``ALIAS_PERIOD``),
if its period is beyond those tried, so every call whose fixed-period
lattice fits the budget still runs.  Past that the search raises
NumericFailure: naming aliasing after a failed pair, and the node budget
where no lattice fits.

The estimate is blind to even images: both sums count them with the
same sign.  Mass at z + P (1, 1) and none at the odd images reads into
the value unseen.  For a grid whose extent is below P every image of a
window point lies outside the window, so the 1e-10 contract holds where
the smoothed density outside the window, at z + n P for even n, is
below ``ALIAS_TOL``.  The Riemann check lets up to 1e-3 of the mass lie
outside; such mass at an even image reads in with no message.  The
estimate is a check, not a bound.  Grid and pointwise calls may search
to different periods; each value is then within about ALIAS_TOL of the
integral, which keeps them within the 1e-10 contract.

Trapezoid on a symmetric lattice is the right rule here where the
integrand, chi(y) times the damping, is negligible at the box ends +-R:
the Euler-Maclaurin endpoint terms, led by (h^2 / 12)[f']_{-R}^{R}, are
then negligible too, and the error sources are box truncation and
aliasing.  Where chi(+-R) is not negligible, as on the decay-scan
lattices of slowly decaying CFs such as Laplace, the endpoint term is an
error of its own that the plan does not bound (ROADMAP item 3, the
inversion budget, sizes it).

The weighted lattice is contracted one axis at a time onto the z axes
(pointwise evaluations are one-point axes).  Each contraction
sum_k W_k exp(-i z_a y_k) takes one of two forms, chosen from the array
shape alone:

- row split: a vector (a 1-d lattice) is cut into rows of
  K = min(m, 4096) nodes, k = q K + s.  The inner sums over s for all rows
  are one matrix product with the phase row on a one-point z axis, and
  otherwise one batched Bluestein chirp-z transform, an FFT convolution of
  length K + n - 1 instead of an (n x m) matrix of complex exponentials.  The
  rows are then added with their phases exp(-i z_a y_{qK}).  Keeping s
  below 4096 keeps the inner phases accurate on the 1.3M-node decay-scan
  lattices of slowly decaying CFs such as Laplace;
- phase matrix: every other array, i.e. each axis of a 2-d or 3-d
  lattice, multiplies by the matrix exp(-i z_a y_k), in matrix products
  on views written into preallocated outputs.  Each axis's matrix is
  built once per transform and shared by every slab (axis 0's sliced to
  each row group); one too large to hold is built in blocks.  On the
  batched 3-d axes the matrix product dominates and the chirp-z form was
  measured 4-5x slower.

W has the dtype chi returns.  A real chi (a symmetric law's closed form)
gives a real W: it is weighted and |W|-summed in real arithmetic, and
its first contraction is one real matrix product with the phase matrix
read as cos and -sin pairs, half the multiplies of a complex one; a
real 1-d W meets a one-point phase row the same way.  The imaginary part
of the sums still comes from those sine products, so the residue check
below sees an evaluator that is real but not even.

The form depends on the lattice dimension alone, never on the worker
count.  Every density value, pointwise or on a grid, then passes the
same checks in one place (``_certify``): the Hermitian imaginary
residue, finiteness, the negativity floor and the |chi| L1 sum.

The lattice is walked in slabs of axis-0 rows whose bounds depend on the
lattice shape alone, so a 2-d or 3-d lattice is never held whole.  Each
slab is evaluated, weighted and contracted along axes d-1 .. 1 by
itself, and writes the result at its own axis-0 positions in a row
buffer.  Axis 0 is then contracted by one matrix product per row group,
a run of slabs whose rows hold at most ``_ROW_GROUP`` complex values,
and the groups' products are added in order; the checks run on the sum.
Group bounds depend on shapes alone as well, so the values are the same
on any worker count.  Grid workers take slabs from a thread pool.  Each
worker holds one set of buffers for the call (its point block, W, |W|
scratch and inner contraction outputs) and reuses it from slab to slab,
so no slab allocates, or page-faults in, memory of its own.  A 1-d
lattice is one slab and runs on one thread.  chi fills each slab in
blocks of ``_EVAL_BLOCK`` points built in the point buffer, so no slab
builds a meshgrid or a stacked array of all its points, and an evaluator's
temporaries (an ``Empirical`` law's atom chunks among them) are sized by
the block, not the slab.  Each block is weighted as it is written, by
the last axis's weights along its rows and then by each row's leading
weights, and |W|-summed.  A 2-d or 3-d block is whole lattice rows and
says so: it is a ``charfn.LatticeRows`` carrying its rows' leading
coordinates and the shared last-axis nodes, which ``cfmoll.specs`` reads
to evaluate the closed forms once per row and once per row position.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from statistics import NormalDist
from typing import Iterator

import numpy as np

from .charfn import CharFn, LatticeRows, cis, positive_sigma, whole_number
from .errors import NumericFailure, ValidationError
from .grids import (
    DEFAULT_TAIL_TOL,
    DensityField,
    Grid,
    MollificationParams,
    NEGATIVITY_TOL,
    NORMALIZATION_WINDOW,
)

# Alias period of the fixed-period plans (1-d and sigma = 0 lattices), and
# the largest first period of the search.
ALIAS_PERIOD = 64.0
# The period search of d >= 2 smoothing (see module docstring) accepts a
# lattice pair whose alias estimate is at most this: a tenth of the 1e-10
# agreement of grid and pointwise values, which may sit on different periods.
ALIAS_TOL = 1e-11
# Its first period is the window's extent (for a point, the origin-centred
# box holding it) plus this many sigma: the smoothed law's tails are
# Gaussian and at least sigma wide, and exp(-7^2 / 2) is 2e-11, near
# ALIAS_TOL.  Each failed pair grows its period by _PERIOD_GROWTH.
_START_SIGMAS = 14.0
_PERIOD_GROWTH = 1.2
# Its box takes the damping radius for tail_tol / _SEARCH_TAIL, so that the
# endpoint term in the estimate stays below ALIAS_TOL where |chi| does not
# decay (atoms, a box factor).
_SEARCH_TAIL = 100.0
# Hard cap on total lattice nodes, the one size guard: beyond this the
# tensor quadrature is hopeless and the caller must reconfigure.
NODE_BUDGET = 1 << 24
# A density value may exceed the |chi| L1 sum by at most this.
BOUND_SLACK = 1e-6

_SCAN_PROBES = 33
_SCAN_MAX_RADIUS = 2.0**26
_PHASE_BLOCK = 1 << 22  # complex temporaries capped near 64 MiB
# Lattice points per chi evaluation: each slab is filled block by block, so
# the evaluator's temporaries stay small (about 0.5 MiB each).  Row-factored
# closed forms do little arithmetic per point, and at 2^14 points the
# per-call work that holds the GIL (the small row arrays) kept two slab
# workers from running side by side.
_EVAL_BLOCK = 1 << 16
# Slabs of a 2-d or 3-d lattice: at most this many nodes, and at least
# _MIN_SLABS slabs where the rows allow, so a 512^2 lattice still spreads
# over the workers.
_SLAB_NODES = 1 << 18
_MIN_SLABS = 8
# Complex values in the row buffer that collects the slabs' contracted rows
# for one axis-0 product (16 MiB): a window that is thin along axis 0 takes
# several row groups, and a 238-row lattice onto 48^2 points takes one.
_ROW_GROUP = 1 << 20
_NORMAL = NormalDist()


def _damping_mass(sigma: float, d: int) -> float:
    """(2 pi)^-d * integral of exp(-sigma^2 ||y||^2 / 2) over R^d, which is
    (2 pi sigma^2)^(-d/2); inf where sigma^2 underflows."""
    try:
        return (2.0 * math.pi * sigma * sigma) ** (-0.5 * d)
    except (OverflowError, ZeroDivisionError):
        return math.inf


def truncation_radius(sigma: float, tail_tol: float, d: int) -> float:
    """Box half-width R with (2 pi)^-d * integral over {||y||_inf > R} of
    exp(-sigma^2 ||y||^2 / 2) dy <= tail_tol.

    Uses the per-axis Gaussian tail erfc(sigma R / sqrt(2)) = 2 Phi(-sigma R)
    and a union bound over the d axes, solved in closed form with the
    stdlib's inverse normal CDF (``statistics.NormalDist.inv_cdf``,
    Wichura's AS241), so erfcinv(y) = -Phi^-1(y / 2) / sqrt(2).  Returns
    the sentinel 1.0 when the bound is vacuous (tail_tol at least the
    whole integral).  Nonincreasing in sigma, nondecreasing in 1/tail_tol.
    A tail_tol whose per-axis tail underflows double precision raises
    ValidationError.
    """
    sigma = positive_sigma(sigma)
    tail_tol = float(tail_tol)
    d = whole_number(d, "dimension", 1)
    if not (tail_tol > 0):
        raise ValidationError(f"tail_tol must be positive, got {tail_tol!r}")
    whole = _damping_mass(sigma, d)
    if tail_tol >= whole:
        return 1.0
    # Phi(-sigma R) on each axis
    half = tail_tol / (d * whole) / 2.0
    if not half >= sys.float_info.min:
        raise ValidationError(
            f"tail_tol {tail_tol!r} is too small for sigma {sigma!r} in {d}-d: "
            "the per-axis Gaussian tail it asks for underflows double precision"
        )
    return max(-_NORMAL.inv_cdf(half) / sigma, 1.0)


# ---------------------------------------------------------------------------
# Quadrature plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadPlan:
    """Per-axis nodes and weights of a trapezoid rule on [-R_j, R_j] (R_j
    is ``nodes[j][-1]``) or of its midpoint rule (R_j is ``nodes[j][-1]``
    plus half a step).  At sigma > 0 the weights carry the Gaussian damping
    exp(-sigma^2 y^2 / 2), so the plan is the whole quadrature rule and
    W = chi times the weights."""

    nodes: tuple[np.ndarray, ...]
    weights: tuple[np.ndarray, ...]

    @property
    def d(self) -> int:
        return len(self.nodes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(y) for y in self.nodes)


def _even_ceil(x: float) -> int:
    n = math.ceil(x)
    return n if n % 2 == 0 else n + 1


def _alias_nodes(radius: float) -> int:
    return _even_ceil(radius * ALIAS_PERIOD / math.pi)


def _axis_rule(radius: float, m: int, midpoint: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The trapezoid rule on [-R, R] with m nodes and step h = 2R / (m - 1),
    or its midpoint rule: the m - 1 nodes shifted by h / 2, weight h each."""
    h = 2.0 * radius / (m - 1)
    if midpoint:
        return np.linspace(0.5 * h - radius, radius - 0.5 * h, m - 1), np.full(m - 1, h)
    w = np.full(m, h)
    w[0] = w[-1] = 0.5 * h
    return np.linspace(-radius, radius, m), w


def _budget_check(plan_shape: tuple[int, ...]) -> None:
    total = math.prod(plan_shape)
    if total > NODE_BUDGET:
        raise NumericFailure(
            f"quadrature lattice {plan_shape} needs {total:.3g} nodes, over the "
            f"budget of {NODE_BUDGET} (the cost grows as m^d); lower the dimension "
            "or nodes_per_axis, supply an explicit truncation_radius or loosen tail_tol"
        )


def _build_plan(
    radii: list[float], ms: list[int], sigma: float, midpoint: bool = False
) -> QuadPlan:
    rules = [_axis_rule(r, m, midpoint) for r, m in zip(radii, ms)]
    if sigma > 0.0:
        rules = [(y, w * np.exp(-0.5 * sigma * sigma * y**2)) for y, w in rules]
    return QuadPlan(nodes=tuple(y for y, _ in rules), weights=tuple(w for _, w in rules))


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


def _check_tail_tol(d: int, sigma: float, tail_tol: float) -> None:
    """ValidationError for a ``tail_tol`` that reaches the whole quantity it
    bounds, since it would leave no box to choose: the damping integral
    (2 pi sigma^2)^(-d/2) when sigma > 0, and 1 >= |chi| for the decay scan."""
    whole, what = (
        (_damping_mass(sigma, d), "the damping integral (2 pi sigma^2)^(-d/2)")
        if sigma > 0.0
        else (1.0, "the bound |chi| <= 1")
    )
    if tail_tol >= whole:
        raise ValidationError(
            f"tail_tol {tail_tol!r} is not below {whole:.6g} ({what}), so it "
            "bounds nothing and leaves no truncation box; lower it"
        )


def _plan(cf: CharFn, sigma: float, params: MollificationParams) -> QuadPlan:
    """The fixed-period quadrature rule for scale sigma.  An explicit radius
    is used as given; otherwise sigma > 0 takes the erfc radius of the
    Gaussian damping and sigma = 0 (inversion) the decay scan of |chi|, and
    each axis gets the nodes for ``ALIAS_PERIOD``.  No axis gets fewer than
    ``params.nodes(d)`` nodes, so a lattice of that many per axis that is
    over the node budget fails before chi is called."""
    m = params.nodes(cf.d)
    _budget_check((m,) * cf.d)
    if params.truncation_radius is not None:
        ms, radii = [m] * cf.d, [params.truncation_radius] * cf.d
    else:
        _check_tail_tol(cf.d, sigma, params.tail_tol)
        if sigma > 0.0:
            radii = [truncation_radius(sigma, params.tail_tol, cf.d)] * cf.d
        else:
            radii = _decay_radii(cf, params.tail_tol)
        ms = [max(m, _alias_nodes(r)) for r in radii]
        _budget_check(tuple(ms))
    return _build_plan(radii, ms, sigma)


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


def _row_groups(slabs: list[tuple[int, int]], row_size: int) -> list[list[tuple[int, int]]]:
    """Runs of consecutive slabs whose contracted rows, ``row_size`` complex
    values each, fill at most ``_ROW_GROUP`` values of the row buffer; a
    slab larger than that is a group by itself.  The runs depend on shapes
    alone, like the slabs."""
    groups = [[slabs[0]]]
    for lo, hi in slabs[1:]:
        if (hi - groups[-1][0][0]) * row_size > _ROW_GROUP:
            groups.append([])
        groups[-1].append((lo, hi))
    return groups


class _Buffers:
    """One slab worker's arrays for one call, reused from slab to slab so
    that no slab allocates (or page-faults in) its own W, point block or
    contraction outputs.  Nothing outlives the call that made it."""

    def __init__(self):
        self._flat: dict = {}

    def take(self, name: str | int, shape: tuple[int, ...], dtype=float) -> np.ndarray:
        """An uninitialised array of ``shape``: a view of the buffer kept
        under (name, dtype), allocated on first use and again only when
        too small (the first slab is the largest)."""
        size = math.prod(shape)
        key = (name, np.dtype(dtype))
        buf = self._flat.get(key)
        if buf is None or len(buf) < size:
            buf = self._flat[key] = np.empty(size, dtype=dtype)
        return buf[:size].reshape(shape)


def _lattice_blocks(
    plan: QuadPlan, lo: int, hi: int, bufs: _Buffers
) -> Iterator[tuple[int, np.ndarray, np.ndarray | None, np.ndarray]]:
    """(start, points, lead, last) for the blocks of about ``_EVAL_BLOCK``
    points that fill rows [lo, hi) of the node lattice, in flat C order.
    A block is rows of ``len(last)`` points; its weights are the per-axis
    plan weights ``last`` along each row times the row's product of
    leading weights in ``lead`` (None for a 1-d block, which is one row).

    A 1-d block is a plain slice of the nodes.  Otherwise a block is whole
    rows along the last axis, written into the worker's point buffer,
    whose last coordinate is set once per slab and whose leading
    coordinates are copied from the slab's stacked leading coordinates:
    row after row in C order, every row holding the same last-axis nodes
    in order and one fixed leading coordinate tuple.  The block is
    yielded as a ``charfn.LatticeRows`` that states this layout, and
    ``specs`` factors chi over it.
    """
    nodes = (plan.nodes[0][lo:hi],) + plan.nodes[1:]
    weights = (plan.weights[0][lo:hi],) + plan.weights[1:]
    if plan.d == 1:
        y = nodes[0][:, None]
        for a in range(0, len(y), _EVAL_BLOCK):
            yield a, y[a : a + _EVAL_BLOCK], None, weights[0][a : a + _EVAL_BLOCK]
        return
    last = len(nodes[-1])
    heads = np.stack(np.meshgrid(*nodes[:-1], indexing="ij"), axis=-1).reshape(-1, plan.d - 1)
    lead = functools.reduce(np.multiply.outer, weights[:-1]).reshape(-1)
    rows = len(lead)
    step = max(1, _EVAL_BLOCK // last)
    buf = bufs.take("points", (min(step, rows), last, plan.d))
    buf[..., -1] = nodes[-1]
    for r in range(0, rows, step):
        n = min(step, rows - r)
        # a column at a time: one 3-d broadcast iterates pairs, 4x slower
        for j in range(plan.d - 1):
            buf[:n, :, j] = heads[r : r + n, j, None]
        pts = LatticeRows(buf[:n].reshape(-1, plan.d), heads[r : r + n], nodes[-1])
        yield r * last, pts, lead[r : r + n], weights[-1]


def _weight_tensor(
    cf: CharFn, plan: QuadPlan, lo: int, hi: int, bufs: _Buffers | None = None
) -> tuple[np.ndarray, float]:
    """W on rows [lo, hi) of the node lattice, chi times the plan's
    per-axis weights (which carry the Gaussian damping when sigma > 0),
    and the sum of |W|.  W and the block arrays live in ``bufs`` (fresh
    ones when None), so W is valid until the next slab taken from them.

    chi fills the slab block by block (``_lattice_blocks``); each block is
    weighted as it is written, by the last axis's weights and then by its
    rows' leading weights, and its |W| is summed while it is in cache, so
    no slab-size temporary is made.  W takes the dtype chi returns:
    float64 for a real chi (a symmetric law), so the slab is weighted,
    summed and first contracted in real arithmetic; a complex block turns
    the slab complex from then on.
    """
    bufs = bufs or _Buffers()
    shape = (hi - lo,) + plan.shape[1:]
    w, mass = None, 0.0
    for a, pts, lead, last in _lattice_blocks(plan, lo, hi, bufs):
        vals = cf.batch_eval(pts)
        if w is None or (np.iscomplexobj(vals) and not np.iscomplexobj(w)):
            real = w
            w = bufs.take("W", shape, complex if np.iscomplexobj(vals) else float)
            if real is not None:
                w.reshape(-1)[:a] = real.reshape(-1)[:a]
        block = w.reshape(-1)[a : a + len(pts)]
        rows = block.reshape(-1, len(last))
        np.multiply(vals.reshape(rows.shape), last, out=rows)
        if lead is not None:
            rows *= lead[:, None]
        mass += float(np.sum(np.abs(block, out=bufs.take("abs", block.shape))))
    return w, mass


def _phase_matrix(y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """exp(-i z_a y_k) as an (m, n) C-ordered array, row k for node k."""
    return cis(-np.outer(y, z))


def _phase_product(
    t: np.ndarray, y: np.ndarray, z: np.ndarray, phases: np.ndarray | None, out: np.ndarray
) -> None:
    """out[b, a, c] = sum_k exp(-i z_a y_k) t[b, k, c] for a (B, m, C) ``t``
    and a complex (B, n, C) ``out``, written in place by matrix products
    on views, so no operand is copied.  ``phases`` is the phase matrix when
    the caller built it; else it is built here in blocks of at most
    ``_PHASE_BLOCK`` elements.  With C > 1 each b is one product with the
    transposed phase matrix.  With C = 1 (the last lattice axis) all of
    ``t`` is one product; a real ``t`` then takes one real product with
    the phases read as float pairs, cos(z_a y_k) and -sin(z_a y_k), whose
    result read as complex is the sum: half the multiplies of a complex
    product, and the imaginary part still comes from the sines."""
    step = len(z) if phases is not None else max(1, _PHASE_BLOCK // len(y))
    for lo in range(0, len(z), step):
        ph = phases if phases is not None else _phase_matrix(y, z[lo : lo + step])
        o = out[:, lo : lo + step]
        if t.shape[2] > 1:
            np.matmul(ph.T, t, out=o)
        elif np.iscomplexobj(t):
            np.matmul(t[:, :, 0], ph, out=o[:, :, 0])
        else:
            np.matmul(t[:, :, 0], ph.view(float), out=o[:, :, 0].view(float))


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
    return cis(0.5 * head * jj) * cis(0.5 * (theta - head) * jj)


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
    """sum_k t_k exp(-i z_a y_k) for a vector ``t`` (a 1-d lattice) on
    uniform axes ``y`` and ``z``.  The axis is cut into rows of
    K = min(m, 4096) nodes, k = q K + s, so the phase of node k is
    z_a y_{qK} + z_a h s and
        sum_k t_k exp(-i z_a y_k) = sum_q exp(-i z_a y_{qK}) sum_s t[q K + s] exp(-i z_a h s).
    s stays below 4096, so the inner phases stay accurate on any axis
    length.  h comes from the endpoints: on an axis reaching 65536,
    y[1] - y[0] is off by up to 1.5e-11, which s < 4096 and |z| ~ 6 turn
    into phase errors near 1e-7.

    On one point the inner sums are one matrix product with the phase row
    exp(-i z_0 h s) (``_row_sums``); whole rows are a view, and the last
    partial row (if any) is padded alone.  On n > 1 points, with z_a = z_0 + a dz
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
    inner_ph = cis(-z[0] * h * np.arange(k))
    if n == 1:
        pieces = (_rows(t, k, 0, m // k), _rows(t, k, m // k, q))
        inner = np.concatenate([_row_sums(p, inner_ph) for p in pieces])
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


def _row_sums(rows: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """rows @ phases for complex ``phases``.  Real rows take one real
    product with the phases read as (k, 2) floats, cos and -sin, as in
    ``_phase_product``, so they are never cast to complex."""
    if np.iscomplexobj(rows):
        return rows @ phases
    return (rows @ phases.view(float).reshape(-1, 2)).view(complex)[:, 0]


def _outer_sum(inner: np.ndarray, starts: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_q inner[q, a] exp(-i starts_q z_a)."""
    return np.einsum("qa,qa->a", inner, cis(-np.outer(starts, z)))


def _certify(raw: np.ndarray, bound: float, params: MollificationParams) -> np.ndarray:
    """Every check a density value passes, pointwise or on a grid; returns
    the real part of the scaled sums ``raw``, flattened row-major, with
    ripple clamped to zero.

    The imaginary residue of a Hermitian-symmetric chi is rounding, so one
    above 100 (tail_tol + 1e-12 max(1, bound)) means a broken evaluator, as
    does a value that is not finite.  An explicit ``truncation_radius``
    leaves ``params.tail_tol`` unread by the plan, so the limit then takes
    ``DEFAULT_TAIL_TOL``: a setting that chose nothing cannot loosen it.
    A density is nonnegative, so ripple in [-NEGATIVITY_TOL, 0) is clamped
    to zero and anything lower is a quadrature failure.  No value may
    exceed ``bound``, the |chi| L1 quadrature mass on the same nodes (the
    mean of a searched pair's two masses), by more than ``BOUND_SLACK``;
    that sum guards the arithmetic, not the quadrature error (ROADMAP
    item 3).
    """
    tail_tol = DEFAULT_TAIL_TOL if params.truncation_radius is not None else params.tail_tol
    limit = 100.0 * (tail_tol + 1e-12 * max(1.0, bound))
    im_max = float(np.max(np.abs(raw.imag)))
    if im_max > limit:
        raise NumericFailure(
            f"imaginary residue {im_max:g} exceeds {limit:g}; the "
            "CharFn is not Hermitian-symmetric (broken evaluator)"
        )
    values = np.ascontiguousarray(raw.real).reshape(-1)
    if not np.all(np.isfinite(values)):
        raise NumericFailure("density values are not finite; check the CharFn")
    vmin = float(values.min())
    if vmin < -NEGATIVITY_TOL:
        raise NumericFailure(
            f"density value {vmin:g} below -{NEGATIVITY_TOL:g}; increase the node count "
            "or truncation radius, or check the CharFn"
        )
    vmax = float(values.max())
    if vmax > bound + BOUND_SLACK:
        raise NumericFailure(
            f"density value {vmax:g} exceeds the L1 certificate {bound:g} + {BOUND_SLACK:g}"
        )
    return np.maximum(values, 0.0, out=values)


def _slab_transform(
    cf: CharFn,
    plan: QuadPlan,
    z_axes: list[np.ndarray],
    phases: list[np.ndarray | None],
    lo: int,
    hi: int,
    rows: np.ndarray,
    bufs: _Buffers,
) -> float:
    """Contract rows [lo, hi) of the lattice along axes d-1 .. 1 into
    ``rows``, the slab's part of the row buffer, shape (hi - lo, n_1, ..,
    n_{d-1}), and return the slab's sum of |W|.  W and the outputs of the
    inner axes are the worker's ``bufs``.  ``phases`` holds each axis's
    phase matrix, or None where ``_phase_product`` builds it in blocks."""
    t, mass = _weight_tensor(cf, plan, lo, hi, bufs)
    shape = list(t.shape)
    for j in reversed(range(1, plan.d)):
        m, after = shape[j], math.prod(shape[j + 1 :])
        shape[j] = len(z_axes[j])
        out = rows if j == 1 else bufs.take(j, tuple(shape), complex)
        before = math.prod(shape[:j])
        _phase_product(
            t.reshape(before, m, after), plan.nodes[j], z_axes[j], phases[j],
            out.reshape(before, shape[j], after),
        )
        t = out
    return mass


def _scaled_transform(
    cf: CharFn, plan: QuadPlan, z_axes: list[np.ndarray], workers: int = 1
) -> tuple[np.ndarray, float]:
    """The (2 pi)^-d scaled complex sums on the tensor lattice of ``z_axes``
    plus the |chi| L1 quadrature mass; ``_certify`` checks them.
    Pointwise calls pass one-point axes.

    A 1-d lattice is one slab, contracted on one thread.  A 2-d or 3-d
    lattice is walked in the slabs of ``_slabs`` on up to ``workers``
    threads, each holding one set of ``_Buffers`` for the call.  A slab
    contracts axes d-1 .. 1 and writes its rows at their own axis-0
    positions in the row buffer.  Each run of slabs from ``_row_groups``
    is then contracted along axis 0 by one matrix product, and the runs'
    products are added in order; the runs depend on shapes alone, so the
    values do not depend on the worker count.  Each axis's phase matrix
    is built once here when it holds at most ``_PHASE_BLOCK`` elements; a
    larger one is built in blocks, so memory stays bounded.
    """
    z_axes = [np.asarray(z, dtype=float) for z in z_axes]
    scale = (2.0 * math.pi) ** (-cf.d)
    if plan.d == 1:
        t, mass = _weight_tensor(cf, plan, 0, plan.shape[0])
        raw = _vector_contract(t, plan.nodes[0], z_axes[0])
        raw *= scale
        return raw, scale * mass
    phases = [
        _phase_matrix(y, z) if len(y) * len(z) <= _PHASE_BLOCK else None
        for y, z in zip(plan.nodes, z_axes)
    ]
    slabs = _slabs(plan.shape)
    row_shape = tuple(len(z) for z in z_axes[1:])
    groups = _row_groups(slabs, math.prod(row_shape))
    row_buffer = np.empty((max(g[-1][1] - g[0][0] for g in groups),) + row_shape, dtype=complex)
    raw = np.empty((len(z_axes[0]),) + row_shape, dtype=complex)
    part = np.empty_like(raw) if len(groups) > 1 else raw
    n = min(workers, len(slabs))
    free = [_Buffers() for _ in range(n)]
    masses: list[float] = []

    def slab(top: int, bounds: tuple[int, int]) -> float:
        # at most n slabs run at once, so a set is always free; list pop
        # and append are atomic
        bufs = free.pop()
        try:
            lo, hi = bounds
            rows = row_buffer[lo - top : hi - top]
            return _slab_transform(cf, plan, z_axes, phases, lo, hi, rows, bufs)
        finally:
            free.append(bufs)

    def walk(run) -> None:
        for i, group in enumerate(groups):
            top, end = group[0][0], group[-1][1]
            masses.extend(run(functools.partial(slab, top), group))
            out = raw if i == 0 else part
            _phase_product(
                row_buffer[: end - top].reshape(1, end - top, -1),
                plan.nodes[0][top:end],
                z_axes[0],
                None if phases[0] is None else phases[0][top:end],
                out.reshape(1, len(z_axes[0]), -1),
            )
            if i:
                np.add(raw, part, out=raw)

    if n == 1:
        walk(map)
    else:
        with ThreadPoolExecutor(max_workers=n) as pool:
            walk(pool.map)
    raw *= scale
    return raw, scale * sum(masses)


def _search_lattices(
    cf: CharFn, sigma: float, extent: float, params: MollificationParams
) -> Iterator[tuple[float, int]]:
    """The box radius and nodes per axis of each lattice pair the period
    search tries, in order (module docstring).  A lattice over the node
    budget ends the periods; then comes the fixed plan's lattice, if its
    period is beyond those tried, and ``_plan`` raises NumericFailure if it
    is over the budget too."""
    if params.truncation_radius is not None:
        radius = params.truncation_radius
    else:
        _check_tail_tol(cf.d, sigma, params.tail_tol)
        radius = truncation_radius(sigma, params.tail_tol / _SEARCH_TAIL, cf.d)
    floor = params.nodes_per_axis or 2
    period, tried = min(extent + _START_SIGMAS * sigma, ALIAS_PERIOD), 0.0
    while (m := max(floor, _even_ceil(radius * period / math.pi))) ** cf.d <= NODE_BUDGET:
        yield radius, m
        # the lattice's own period, which a node floor may put above the asked one
        tried = math.pi * (m - 1) / radius
        period = _PERIOD_GROWTH * tried
    fixed = _plan(cf, sigma, params)
    radius, m = float(fixed.nodes[0][-1]), fixed.shape[0]
    if math.pi * (m - 1) / radius > tried:
        yield radius, m


def _searched_transform(
    cf: CharFn, sigma: float, z_axes: list[np.ndarray], params: MollificationParams, workers: int
) -> tuple[np.ndarray, float]:
    """``_scaled_transform`` on the first lattice pair that passes the alias
    check (module docstring): the average of the trapezoid and midpoint
    sums, and the mean of their |chi| L1 masses."""
    if all(len(z) == 1 for z in z_axes):  # a point: the origin-centred box holding it
        extent = 2.0 * max(abs(float(z[0])) for z in z_axes)
    else:
        extent = max(float(np.ptp(z)) for z in z_axes)
    # _search_lattices yields at least one pair, or raises
    for radius, m in _search_lattices(cf, sigma, extent, params):
        rule = functools.partial(_build_plan, [radius] * cf.d, [m] * cf.d, sigma)
        (trap, mass), (mid, mid_mass) = (
            _scaled_transform(cf, rule(midpoint), z_axes, workers) for midpoint in (False, True)
        )
        estimate = 0.5 * float(np.max(np.abs(trap.real - mid.real)))
        if estimate <= ALIAS_TOL:
            trap += mid
            trap *= 0.5
            return trap, 0.5 * (mass + mid_mass)
    raise NumericFailure(
        f"alias period search: the alias estimate is {estimate:.3g} > {ALIAS_TOL:g} at "
        f"period {math.pi * (m - 1) / radius:.4g}, and a larger period's lattice is over the "
        f"node budget of {NODE_BUDGET}.  The smoothed law has mass that far from the window, "
        "or the window is too wide: narrow the grid window (a point's is the origin-centred "
        "box holding it) or raise sigma"
    )


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
    params = params or MollificationParams()
    if cf.d >= 2 and sigma > 0.0:
        raw, bound = _searched_transform(cf, sigma, z_axes, params, workers)
    else:
        raw, bound = _scaled_transform(cf, _plan(cf, sigma, params), z_axes, workers)
    return _certify(raw, bound, params)


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

    The value passes the grid's checks: ripple in [-NEGATIVITY_TOL, 0) is
    clamped to zero, and larger negativity or a value above the |chi| L1
    sum raises NumericFailure.
    """
    sigma = positive_sigma(sigma)
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

    Values match the pointwise ones to 1e-10: a fixed-period plan is the
    one ``mollified_density_at`` uses, and a searched one may stop at
    another period, each within about ``ALIAS_TOL``.  Values pass the checks
    of the pointwise ones (negativity and the |chi| L1 sum), and the
    Riemann sum must come out within 1e-3 of 1, else the grid window or
    quadrature is inadequate and a NumericFailure is raised.  ``workers``
    (at least 1) caps the threads, which may call ``cf.batch_eval``
    concurrently; the values do not depend on it.
    """
    sigma = positive_sigma(sigma)
    vals = _density(cf, sigma, [grid.axis_points(j) for j in range(grid.d)], params, workers)
    field = DensityField(grid=grid, values=vals, sigma=sigma)
    if not field.normalized:
        raise NumericFailure(
            f"grid Riemann sum {field.riemann_sum:.6g} outside 1 +- {NORMALIZATION_WINDOW:g}; "
            "enlarge the grid window, the truncation radius, or nodes_per_axis"
        )
    return field


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

    The result is checked against the |chi| L1 quadrature sum on the same
    nodes: values above it (plus slack) or below -NEGATIVITY_TOL raise
    NumericFailure.  That sum bounds the value by the triangle inequality
    whatever the evaluator returns, so it guards the arithmetic, not the
    quadrature error; a bound computed apart from the quadrature is
    ROADMAP item 3.
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
    partial window is legitimate here, and the field's ``normalized``
    reads False.  ``workers`` (at least 1) caps the threads, which may
    call ``cf.batch_eval`` concurrently; the values do not depend on it.
    """
    _require_integrable(cf, allow_unknown_integrability)
    vals = _density(cf, 0.0, [grid.axis_points(j) for j in range(grid.d)], params, workers)
    return DensityField(grid=grid, values=vals, sigma=0.0)


def cf_l1_bound(
    cf: CharFn,
    params: MollificationParams | None = None,
    allow_unknown_integrability: bool = False,
) -> float:
    """Truncated quadrature estimate of (2 pi)^-d * integral |chi| d lambda^d.

    It bounds every value the inversion computes on the same nodes, by the
    triangle inequality and whatever the evaluator returns, so it guards
    the arithmetic of ``invert_density_at``, not its quadrature error
    (ROADMAP item 3).
    """
    _require_integrable(cf, allow_unknown_integrability)
    plan = _plan(cf, 0.0, params or MollificationParams())
    bufs = _Buffers()
    masses = [_weight_tensor(cf, plan, lo, hi, bufs)[1] for lo, hi in _slabs(plan.shape)]
    return (2.0 * math.pi) ** (-cf.d) * float(sum(masses))
