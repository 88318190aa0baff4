"""Seeded Monte Carlo references for the quadrature machinery.

Each spec class draws its own samples (``DistributionSpec.draw`` in
``cfmoll.specs``) from the counter-based Philox generator.  Composite specs
draw each component from its own child stream, spawned deterministically
from the parent SeedSequence, so results do not depend on evaluation order
and identical (spec, n, seed) inputs reproduce bit-identical batches.

Gaussian draws come from the generator's exact normal sampler (ziggurat),
never an approximate inverse CDF, so the references are exact in
distribution.

``empirical_cf`` sums over the draws with the same chunked kernel as the
``Empirical`` CF (``specs.atom_sum``): besides one unit weight per draw,
its temporaries are bounded by the chunk size, never a (probes x draws)
matrix.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .charfn import CharFn
from .errors import ValidationError
from .grids import DensityField, Grid, NORMALIZATION_WINDOW
from . import specs as sp


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
    n = int(n)
    if n < 1:
        raise ValidationError(f"sample size must be >= 1, got {n}")
    pts = spec.draw(n, np.random.SeedSequence(int(seed)))
    return SampleBatch(points=pts, seed=int(seed), spec=spec)


def empirical_cf(batch: SampleBatch, t) -> complex | np.ndarray:
    """Estimator (1/n) sum_j exp(i<t, X_j>); exactly 1 at t = 0.  The draws
    go through ``specs.atom_sum`` with unit weights, in chunks."""
    points, ones = batch.points, np.ones(batch.n)
    return CharFn(batch.d, lambda pts: sp.atom_sum(points, ones, pts), "no")(t)


def mc_tail_prob(spec: sp.DistributionSpec, radius: float, n: int, seed: int) -> float:
    """Empirical P(||X||_inf > radius)."""
    radius = float(radius)
    if radius < 0:
        raise ValidationError(f"radius must be nonnegative, got {radius!r}")
    batch = sample(spec, n, seed)
    outside = np.max(np.abs(batch.points), axis=1) > radius
    return float(np.mean(outside))


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
    sigma = float(sigma)
    if not (sigma > 0 and np.isfinite(sigma)):
        raise ValidationError(f"sigma must be positive, got {sigma!r}")
    if grid.d != spec.dim:
        raise ValidationError(f"grid dimension {grid.d} != spec dimension {spec.dim}")
    n = int(n)
    if n < 1:
        raise ValidationError(f"sample size must be >= 1, got {n}")

    root = np.random.SeedSequence(int(seed))
    spec_seq, noise_seq = root.spawn(2)
    pts = spec.draw(n, spec_seq)
    pts = pts + sigma * sp.philox(noise_seq).standard_normal(pts.shape)

    edges = []
    for j in range(grid.d):
        axis = grid.axis_points(j)
        h = grid.spacings[j]
        edges.append(np.concatenate([axis - 0.5 * h, [axis[-1] + 0.5 * h]]))
    counts, _ = np.histogramdd(pts, bins=edges)
    values = counts.reshape(-1) / (n * grid.cell_volume)
    total = float(np.sum(values) * grid.cell_volume)
    return DensityField(
        grid=grid, values=values, normalized=abs(total - 1.0) <= NORMALIZATION_WINDOW
    )


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
