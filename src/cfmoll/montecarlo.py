"""Seeded Monte Carlo references for the quadrature machinery.

Sampling uses the counter-based Philox generator.  Composite specs draw
each component from its own child stream, spawned deterministically from
the parent SeedSequence, so results do not depend on evaluation order and
identical (spec, n, seed) inputs reproduce bit-identical batches.

Gaussian draws come from the generator's exact normal sampler (ziggurat),
never an approximate inverse CDF, so the references are exact in
distribution.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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


def _generator(seq: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seq))


def _gaussian_factor(cov: np.ndarray) -> np.ndarray:
    # eigh handles PSD covariances that Cholesky rejects
    eigvals, eigvecs = np.linalg.eigh(cov)
    return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


def _draw(spec: sp.DistributionSpec, n: int, seq: np.random.SeedSequence) -> np.ndarray:
    if isinstance(spec, sp.Gaussian):
        z = _generator(seq).standard_normal((n, spec.dim))
        return spec.mean + z @ _gaussian_factor(spec.cov).T
    if isinstance(spec, sp.PointMass):
        return np.tile(spec.location, (n, 1))
    if isinstance(spec, sp.UniformBox):
        return _generator(seq).uniform(spec.lo, spec.hi, size=(n, spec.dim))
    if isinstance(spec, sp.Laplace1D):
        return _generator(seq).laplace(0.0, spec.scale, size=(n, 1))
    if isinstance(spec, sp.Empirical):
        idx = _generator(seq).choice(spec.points.shape[0], size=n, p=spec.weights)
        return spec.points[idx]
    if isinstance(spec, sp.Convolution):
        children = seq.spawn(len(spec.parts))
        out = np.zeros((n, spec.dim))
        for part, child in zip(spec.parts, children):
            out += _draw(part, n, child)
        return out
    if isinstance(spec, sp.AffineMap):
        inner = _draw(spec.inner, n, seq.spawn(1)[0])
        return inner @ spec.matrix.T + spec.shift
    if isinstance(spec, sp.StandardizedIIDSum):
        children = seq.spawn(spec.n)
        acc = np.zeros((n, 1))
        for child in children:
            acc += _draw(spec.base, n, child)
        return acc / np.sqrt(spec.n)
    if isinstance(spec, sp.Product):
        children = seq.spawn(len(spec.factors))
        cols = [_draw(f, n, c) for f, c in zip(spec.factors, children)]
        return np.concatenate(cols, axis=1)
    raise ValidationError(f"spec {type(spec).__name__} does not support sampling")


def sample(spec: sp.DistributionSpec, n: int, seed: int) -> SampleBatch:
    """n i.i.d. draws from the law described by ``spec``."""
    n = int(n)
    if n < 1:
        raise ValidationError(f"sample size must be >= 1, got {n}")
    pts = _draw(spec, n, np.random.SeedSequence(int(seed)))
    return SampleBatch(points=pts, seed=int(seed), spec=spec)


def empirical_cf(batch: SampleBatch, t) -> complex | np.ndarray:
    """Estimator (1/n) sum_j exp(i<t, X_j>); exactly 1 at t = 0."""
    arr = np.asarray(t, dtype=float)
    if batch.d == 1:
        pts = arr.reshape(-1, 1)
        out_shape = arr.shape
    else:
        if arr.ndim == 0 or arr.shape[-1] != batch.d:
            raise ValidationError(
                f"probe for a {batch.d}-d batch needs last axis {batch.d}, got {arr.shape}"
            )
        pts = arr.reshape(-1, batch.d)
        out_shape = arr.shape[:-1]
    vals = np.exp(1j * (pts @ batch.points.T)).mean(axis=1).reshape(out_shape)
    if vals.ndim == 0:
        return complex(vals)
    return vals


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
    pts = _draw(spec, n, spec_seq)
    pts = pts + sigma * _generator(noise_seq).standard_normal(pts.shape)

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
