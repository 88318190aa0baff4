"""Seeded Monte Carlo references for the quadrature machinery.

Each spec class draws its own samples (``DistributionSpec.draw`` in
``cfmoll.specs``) from the counter-based Philox generator.  Composite specs
draw each component from its own child stream, spawned deterministically
from the parent SeedSequence, so results do not depend on evaluation order
and identical (spec, n, seed) inputs reproduce bit-identical batches.

Gaussian draws come from the generator's exact normal sampler (ziggurat),
never an approximate inverse CDF, so the references are exact in
distribution.  ``Empirical`` draws are ``Generator.choice``'s own inverse
CDF on the same stream, computed without its per-draw binary search.  A
``StandardizedIIDSum`` over an ``Empirical`` base draws from the exact
finite law of the sum (``StandardizedIIDSum.sum_law``: the distinct values
of the count vectors' sums in ascending order, multinomial weights)
through that inverse CDF, one uniform per draw on the parent stream,
while there are at most 2^16 count vectors.  For the same seed its
batches differ from those of versions that added n base draws from n
child streams, as every other base, and a base over that cap, still
does.

``mollified_histogram`` bins the draws in chunks by arithmetic: a guess
from the edge spacing, corrected against the stored edges.  Its counts
are those of ``np.histogramdd`` on the same edges, and its temporaries
are bounded by the chunk.

``empirical_cf`` first merges repeated draws into (value, count) pairs, so
a discrete law pays for its distinct values, not its draws.  It then sums
with the same chunked kernel as the ``Empirical`` CF (``specs.atom_sum``):
exactly 1 at t = 0, and temporaries bounded by the chunk size, never a
(probes x draws) matrix.  On a uniformly spaced 1-d probe axis such as a
``linspace``, that kernel takes cos and sin of every 16th probe only and
reaches the others by complex multiplies, summing only half of a
mirror-symmetric axis.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .charfn import CharFn, positive_sigma, whole_number
from .errors import ValidationError
from .grids import DensityField, Grid
from . import specs as sp


# Draws binned per pass of ``mollified_histogram``; a pass over a larger
# grid takes as many draws as the grid has cells, so the per-pass
# ``bincount`` never costs more than the binning itself.
HIST_CHUNK = 1 << 16


@dataclass(frozen=True)
class SampleBatch:
    """n i.i.d. draws from a spec: ``points`` has shape (n, d)."""

    points: np.ndarray
    seed: int
    spec: sp.DistributionSpec

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValidationError("points must be a nonempty (n, d) array")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


def sample(spec: sp.DistributionSpec, n: int, seed: int) -> SampleBatch:
    """n i.i.d. draws from the law described by ``spec``."""
    n, seed = whole_number(n, "sample size", 1), whole_number(seed, "seed", 0)
    pts = spec.draw(n, np.random.SeedSequence(seed))
    return SampleBatch(points=pts, seed=seed, spec=spec)


def _tally(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``points`` and how often each occurs, as float
    weights.  When every row is distinct, the rows come back as given, in
    their order, with unit weights."""
    n, d = points.shape
    if d == 1:
        rows = np.sort(points[:, 0])[:, None]
    else:
        # rows as opaque bytes: sorting them is much faster than np.unique(axis=0)
        row = np.dtype((np.void, points.itemsize * d))
        rows = np.sort(np.ascontiguousarray(points).view(row)[:, 0])
        rows = rows.view(points.dtype).reshape(n, d)
    new = np.empty(n, dtype=bool)
    new[0] = True
    np.any(rows[1:] != rows[:-1], axis=1, out=new[1:])
    if new.all():
        return points, np.ones(n)
    starts = np.flatnonzero(new)
    return rows[starts], np.diff(starts, append=n).astype(float)


def empirical_cf(batch: SampleBatch, t) -> complex | np.ndarray:
    """Estimator (1/n) sum_j exp(i<t, X_j>); exactly 1 at t = 0.  Repeated
    draws are merged into (value, count) pairs, which go through
    ``specs.atom_sum`` with the counts as weights, in chunks, by its phase
    recurrence when ``t`` is a uniform 1-d probe axis."""
    values, weights = _tally(batch.points)
    return CharFn(batch.d, lambda pts: sp.atom_sum(values, weights, pts), "no")(t)


def mc_tail_prob(spec: sp.DistributionSpec, radius: float, n: int, seed: int) -> float:
    """Empirical P(||X||_inf > radius)."""
    radius = float(radius)
    if not radius >= 0:
        raise ValidationError(f"radius must be nonnegative, got {radius!r}")
    batch = sample(spec, n, seed)
    outside = np.max(np.abs(batch.points), axis=1) > radius
    return float(np.mean(outside))


def _axis_bins(x: np.ndarray, e: np.ndarray, h: float | None) -> np.ndarray:
    """Bin of each x among the edges ``e`` as ``np.histogramdd`` assigns
    it: b where e[b] <= x < e[b+1], the last bin for x == e[-1], and -1 or
    len(e) - 1 outside [e[0], e[-1]] and for NaN.

    With a spacing h, the guess floor((x - e[0]) / h) must be within one
    bin of the answer; two steps past the edges at or below x then fix it.
    Without one, a binary search bins x, as histogramdd does.
    """
    m = len(e) - 1
    if h is None:
        b = np.searchsorted(e, x, side="right") - 1
    else:
        q = x - e[0]
        q /= h
        np.floor(q, out=q)
        np.fmin(np.fmax(q, 0.0, out=q), m - 1, out=q)  # fmax sends NaN to 0
        b = q.astype(np.intp)
        b -= 1
        b += x >= e[b + 1]  # false for NaN, which stays at -1
        b += x >= e[b + 1]
    np.putmask(b, x == e[-1], m - 1)
    return b


def _bin_counts(pts: np.ndarray, grid: Grid) -> np.ndarray:
    """Counts of ``pts`` in the cells centered on the grid lattice, row-major;
    equal to ``np.histogramdd(pts, bins=edges)[0].ravel()`` as integers."""
    edges, spacings = [], []
    for j, h in enumerate(grid.spacings):
        axis = grid.axis_points(j)
        e = np.concatenate([axis - 0.5 * h, [axis[-1] + 0.5 * h]])
        # rounding in (x - e[0]) / h moves the guess by about m 2^-52 bins,
        # so it stays within one bin unless an edge is far off e[0] + i h
        off = np.max(np.abs(e - e[0] - h * np.arange(len(e))))
        edges.append(e)
        spacings.append(h if off < 0.25 * h else None)
    shape, size = grid.shape, grid.size
    counts = np.zeros(size, dtype=np.intp)
    step = max(HIST_CHUNK, size)
    for lo in range(0, len(pts), step):
        chunk = pts[lo : lo + step]
        flat = np.zeros(len(chunk), dtype=np.intp)
        outside = np.zeros(len(chunk), dtype=bool)
        for j, (e, h) in enumerate(zip(edges, spacings)):
            b = _axis_bins(chunk[:, j], e, h)
            outside |= b.view(np.uintp) >= shape[j]  # -1 wraps to the top
            flat *= shape[j]
            flat += b
        np.putmask(flat, outside, size)
        counts += np.bincount(flat, minlength=size + 1)[:size]
    return counts


def mollified_histogram(
    spec: sp.DistributionSpec,
    sigma: float,
    grid: Grid,
    n: int,
    seed: int,
) -> DensityField:
    """Histogram density of X + sigma * Z (Z standard normal) with bins
    centered on the grid lattice.

    This is the sampling counterpart of the smoothed-density quadrature;
    the caller must pick a grid covering the essential support.
    """
    sigma = positive_sigma(sigma)
    if grid.d != spec.dim:
        raise ValidationError(f"grid dimension {grid.d} != spec dimension {spec.dim}")
    n, seed = whole_number(n, "sample size", 1), whole_number(seed, "seed", 0)

    root = np.random.SeedSequence(seed)
    spec_seq, noise_seq = root.spawn(2)
    pts = spec.draw(n, spec_seq)
    pts = pts + sigma * sp.philox(noise_seq).standard_normal(pts.shape)

    values = _bin_counts(pts, grid) / (n * grid.cell_volume)
    return DensityField(grid=grid, values=values, sigma=sigma)


def write_batch_csv(batch: SampleBatch, csv_path: str | Path) -> Path:
    """Write one "x1,...,xd" row per draw plus a JSON sidecar with the
    spec, seed, and n; returns the sidecar path."""
    csv_path = Path(csv_path)
    header = ",".join(f"x{j + 1}" for j in range(batch.d))
    row = ",".join(["{:.17g}"] * batch.d)
    rows = itertools.starmap(row.format, batch.points.tolist())
    csv_path.write_text("\n".join(itertools.chain([header], rows)) + "\n")
    sidecar = csv_path.with_suffix(".meta.json")
    meta = {"spec": sp.spec_to_dict(batch.spec), "seed": batch.seed, "n": batch.n}
    sidecar.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return sidecar
