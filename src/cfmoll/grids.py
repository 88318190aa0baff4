"""Rectangular lattices, sampled densities, and quadrature parameters.

A Grid is a tensor product of uniform 1-d lattices including both
endpoints.  A DensityField holds real density samples over a grid in
row-major axis order together with a normalization claim.  Riemann sums
use the plain cell-volume rule: sum(values) * prod(h_j).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError

DEFAULT_TAIL_TOL = 1e-8
DEFAULT_NEGATIVITY_TOL = 1e-6
NORMALIZATION_WINDOW = 1e-3


@dataclass(frozen=True)
class Grid:
    """Uniform rectangular lattice; ``axes`` is ((min, max, count), ...)."""

    axes: tuple[tuple[float, float, int], ...]

    def __post_init__(self):
        if not self.axes:
            raise ValidationError("grid needs at least one axis")
        norm = []
        for ax in self.axes:
            try:
                lo, hi, n = float(ax[0]), float(ax[1]), int(ax[2])
            except (TypeError, ValueError, IndexError) as exc:
                raise ValidationError(f"bad grid axis {ax!r}: {exc}") from exc
            if not (np.isfinite(lo) and np.isfinite(hi) and hi > lo):
                raise ValidationError(f"grid axis needs max > min, got {ax!r}")
            if n < 2:
                raise ValidationError(f"grid axis needs count >= 2, got {ax!r}")
            norm.append((lo, hi, n))
        object.__setattr__(self, "axes", tuple(norm))

    @classmethod
    def parse(cls, text: str) -> "Grid":
        """Parse "min:max:count[,min:max:count...]" into a Grid."""
        axes = []
        for part in text.split(","):
            bits = part.split(":")
            if len(bits) != 3:
                raise ValidationError(f"bad grid axis {part!r}, expected min:max:count")
            try:
                axes.append((float(bits[0]), float(bits[1]), int(bits[2])))
            except ValueError as exc:
                raise ValidationError(f"bad grid axis {part!r}: {exc}") from exc
        return cls(axes=tuple(axes))

    @property
    def d(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(n for _, _, n in self.axes)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    @property
    def spacings(self) -> np.ndarray:
        return np.array([(hi - lo) / (n - 1) for lo, hi, n in self.axes])

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacings))

    def axis_points(self, j: int) -> np.ndarray:
        lo, hi, n = self.axes[j]
        return np.linspace(lo, hi, n)

    def points(self) -> np.ndarray:
        """All lattice points, shape (size, d), row-major in axis order."""
        mesh = np.meshgrid(*(self.axis_points(j) for j in range(self.d)), indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=-1)

    def to_dict(self) -> dict:
        return {"axes": [[lo, hi, n] for lo, hi, n in self.axes]}

    @classmethod
    def from_dict(cls, d: dict) -> "Grid":
        if "axes" not in d:
            raise ValidationError("grid dict missing 'axes'")
        return cls(axes=tuple(tuple(ax) for ax in d["axes"]))


@dataclass(frozen=True)
class DensityField:
    """Real density samples over a grid, row-major, plus a normalization claim."""

    grid: Grid
    values: np.ndarray
    normalized: bool

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).reshape(-1)
        if vals.size != self.grid.size:
            raise ValidationError(
                f"values length {vals.size} does not match grid size {self.grid.size}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValidationError("density values must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def riemann_sum(self) -> float:
        return float(np.sum(self.values) * self.grid.cell_volume)

    def check_invariants(self, negativity_tol: float = DEFAULT_NEGATIVITY_TOL) -> None:
        """Raise ValidationError if the field violates its own claims."""
        if float(self.values.min(initial=0.0)) < -negativity_tol:
            raise ValidationError(
                f"density has values below -{negativity_tol:g}: min {self.values.min():g}"
            )
        if self.normalized and abs(self.riemann_sum - 1.0) > NORMALIZATION_WINDOW:
            raise ValidationError(
                f"field claims normalization but Riemann sum is {self.riemann_sum!r}"
            )


@dataclass(frozen=True)
class MollificationParams:
    """Numeric configuration for the density quadratures.

    sigma is the smoothing scale (0 means direct inversion only).  When
    ``truncation_radius`` is None the integration box and the effective
    node count are chosen automatically from the tail tolerance; an
    explicit radius disables all auto-scaling and uses ``nodes_per_axis``
    verbatim.
    """

    sigma: float = 0.0
    truncation_radius: float | None = None
    nodes_per_axis: int = 512
    tail_tol: float = DEFAULT_TAIL_TOL
    negativity_tol: float = DEFAULT_NEGATIVITY_TOL
    allow_high_dim: bool = False

    def __post_init__(self):
        if not (self.sigma >= 0 and np.isfinite(self.sigma)):
            raise ValidationError(f"sigma must be >= 0, got {self.sigma!r}")
        if self.truncation_radius is not None and not (self.truncation_radius > 0):
            raise ValidationError(
                f"truncation radius must be positive, got {self.truncation_radius!r}"
            )
        if self.nodes_per_axis < 16:
            raise ValidationError(f"nodes_per_axis must be >= 16, got {self.nodes_per_axis}")
        if self.nodes_per_axis % 2 != 0:
            raise ValidationError(
                f"nodes_per_axis must be even, got {self.nodes_per_axis}"
            )
        if not (self.tail_tol > 0):
            raise ValidationError(f"tail_tol must be positive, got {self.tail_tol!r}")
        if not (self.negativity_tol > 0):
            raise ValidationError(
                f"negativity_tol must be positive, got {self.negativity_tol!r}"
            )

    @classmethod
    def for_dimension(cls, d: int, **overrides) -> "MollificationParams":
        """Defaults sized to the tensor cost: 512 nodes/axis up to d=2, 64 for d=3."""
        nodes = 512 if d <= 2 else 64
        overrides.setdefault("nodes_per_axis", nodes)
        return cls(**overrides)

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# DensityField serialization: CSV values plus a JSON metadata sidecar
# ---------------------------------------------------------------------------

def write_density_csv(
    field: DensityField,
    csv_path: str | Path,
    params: MollificationParams | None = None,
) -> Path:
    """Write "z1,...,zd,density" rows (17 significant digits, row-major)
    and a sidecar <stem>.meta.json with grid, params, and the
    normalization residual.  Returns the sidecar path."""
    csv_path = Path(csv_path)
    grid = field.grid
    header = ",".join(f"z{j + 1}" for j in range(grid.d)) + ",density"
    # each axis coordinate is formatted once; product() walks them row-major
    axes = [[format(c, ".17g") for c in grid.axis_points(j).tolist()] for j in range(grid.d)]
    values = [format(v, ".17g") for v in field.values.tolist()]
    rows = (",".join(coords) + "," + v for coords, v in zip(itertools.product(*axes), values))
    csv_path.write_text("\n".join(itertools.chain([header], rows)) + "\n")

    sidecar = csv_path.with_suffix(".meta.json")
    meta = {
        "grid": field.grid.to_dict(),
        "normalized": field.normalized,
        "normalization_residual": field.riemann_sum - 1.0,
        "params": params.to_dict() if params is not None else None,
    }
    sidecar.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return sidecar


def read_density_csv(csv_path: str | Path) -> DensityField:
    """Re-ingest a density CSV written by ``write_density_csv``.

    The grid is reconstructed from the sidecar; lattice coordinates in the
    CSV are cross-checked against it.
    """
    csv_path = Path(csv_path)
    sidecar = csv_path.with_suffix(".meta.json")
    if not csv_path.exists() or not sidecar.exists():
        raise ValidationError(f"missing density CSV or sidecar for {csv_path}")
    meta = json.loads(sidecar.read_text())
    grid = Grid.from_dict(meta["grid"])

    raw = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    if raw.shape != (grid.size, grid.d + 1):
        raise ValidationError(
            f"CSV shape {raw.shape} does not match grid ({grid.size} x {grid.d + 1})"
        )
    if not np.allclose(raw[:, : grid.d], grid.points(), rtol=0, atol=1e-12):
        raise ValidationError("CSV lattice coordinates disagree with sidecar grid")
    return DensityField(grid=grid, values=raw[:, -1], normalized=bool(meta["normalized"]))
