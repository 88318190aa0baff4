"""Rectangular lattices, sampled densities, and quadrature parameters.

A Grid is a tensor product of uniform 1-d lattices including both
endpoints.  A DensityField holds real density samples over a grid in
row-major axis order and the smoothing scale they were computed at;
their normalization is read off them.  Riemann sums use the plain
cell-volume rule: sum(values) * prod(h_j).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .charfn import LatticeRows, whole_number
from .errors import ValidationError

DEFAULT_TAIL_TOL = 1e-8
# A density is >= 0, so a value below -NEGATIVITY_TOL is a quadrature
# failure; ripple above it is clamped to zero.
NEGATIVITY_TOL = 1e-6
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
                lo, hi, n = float(ax[0]), float(ax[1]), ax[2]
            except (TypeError, ValueError, IndexError) as exc:
                raise ValidationError(f"bad grid axis {ax!r}: {exc}") from exc
            if not (np.isfinite(lo) and np.isfinite(hi) and hi > lo):
                raise ValidationError(f"grid axis needs max > min, got {ax!r}")
            n = whole_number(n, f"count of grid axis {ax!r}", 2)
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
        """All lattice points, shape (size, d), row-major in axis order.  In
        d >= 2 they are whole rows along the last axis and say so: a
        ``charfn.LatticeRows`` block, which the closed forms evaluate once
        per row and once per row position."""
        mesh = np.meshgrid(*(self.axis_points(j) for j in range(self.d)), indexing="ij")
        pts = np.stack([m.reshape(-1) for m in mesh], axis=-1)
        if self.d == 1:
            return pts
        last = self.axis_points(self.d - 1)
        return LatticeRows(pts, pts[:: len(last), :-1], last)

    def to_dict(self) -> dict:
        return {"axes": [[lo, hi, n] for lo, hi, n in self.axes]}

    @classmethod
    def from_dict(cls, d: dict) -> "Grid":
        if "axes" not in d:
            raise ValidationError("grid dict missing 'axes'")
        return cls(axes=tuple(tuple(ax) for ax in d["axes"]))


@dataclass(frozen=True)
class DensityField:
    """Real density samples over a grid, row-major.  ``sigma`` is the
    smoothing scale the values were computed at: the scale for a smoothed
    density, 0.0 for an inverted one, None when unknown (a field built by
    hand)."""

    grid: Grid
    values: np.ndarray
    sigma: float | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).reshape(-1)
        if vals.size != self.grid.size:
            raise ValidationError(
                f"values length {vals.size} does not match grid size {self.grid.size}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValidationError("density values must be finite")
        sigma = self.sigma
        number = isinstance(sigma, (int, float)) and not isinstance(sigma, bool)
        if sigma is not None and not (number and 0 <= sigma < math.inf):
            raise ValidationError(f"sigma must be None or a finite number >= 0, got {sigma!r}")
        object.__setattr__(self, "values", vals)

    @property
    def riemann_sum(self) -> float:
        return float(np.sum(self.values) * self.grid.cell_volume)

    @property
    def normalized(self) -> bool:
        """Whether the Riemann sum is within ``NORMALIZATION_WINDOW`` of 1."""
        return abs(self.riemann_sum - 1.0) <= NORMALIZATION_WINDOW

    def check_invariants(self) -> None:
        """Raise ValidationError if a value is below -NEGATIVITY_TOL."""
        if float(self.values.min(initial=0.0)) < -NEGATIVITY_TOL:
            raise ValidationError(
                f"density has values below -{NEGATIVITY_TOL:g}: min {self.values.min():g}"
            )


@dataclass(frozen=True)
class MollificationParams:
    """Numeric configuration for the density quadratures; the smoothing
    scale is the call's own argument.

    When ``truncation_radius`` is None the integration box and the
    effective node count are chosen automatically from the tail tolerance.
    On 1-d and sigma = 0 lattices an explicit radius disables all
    auto-scaling and uses the node count verbatim; d >= 2 smoothing
    searches its node count with the radius as its box and the node count
    as a floor (``cfmoll.mollify``).  ``nodes_per_axis`` None means the
    default (see ``nodes``).
    """

    truncation_radius: float | None = None
    nodes_per_axis: int | None = None
    tail_tol: float = DEFAULT_TAIL_TOL

    def __post_init__(self):
        if self.truncation_radius is not None and not (0 < self.truncation_radius < math.inf):
            raise ValidationError(
                f"truncation radius must be positive and finite, got {self.truncation_radius!r}"
            )
        m = self.nodes_per_axis
        if m is not None and (m < 16 or m % 2 != 0):
            raise ValidationError(f"nodes_per_axis must be even and >= 16, got {m}")
        if not (0 < self.tail_tol < math.inf):
            raise ValidationError(f"tail_tol must be positive and finite, got {self.tail_tol!r}")

    def nodes(self, d: int, sigma: float = 0.0) -> int | None:
        """The floor on nodes per axis in dimension d at scale sigma:
        ``nodes_per_axis``, or by default 512 up to d = 2 and 64 from d = 3
        (the tensor cost grows as m^d), and none (None) for d >= 2
        smoothing, whose period search sets the count per call."""
        if self.nodes_per_axis is not None:
            return self.nodes_per_axis
        if d >= 2 and sigma > 0:
            return None
        return 512 if d <= 2 else 64

    def to_dict(self, d: int, sigma: float = 0.0) -> dict:
        """The fields, with the node floor used in dimension d at scale sigma."""
        return {**asdict(self), "nodes_per_axis": self.nodes(d, sigma)}


# ---------------------------------------------------------------------------
# DensityField serialization: CSV values plus a JSON metadata sidecar
# ---------------------------------------------------------------------------

def write_density_csv(
    field: DensityField,
    csv_path: str | Path,
    params: MollificationParams | None = None,
) -> Path:
    """Write "z1,...,zd,density" rows (17 significant digits, row-major)
    and a sidecar <stem>.meta.json with grid, params, the field's sigma
    and its normalization residual and flag.  Returns the sidecar path."""
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
        "params": params.to_dict(grid.d, field.sigma or 0.0) if params is not None else None,
        "sigma": field.sigma,
    }
    sidecar.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return sidecar


def read_density_csv(csv_path: str | Path) -> DensityField:
    """Re-ingest a density CSV written by ``write_density_csv``.

    The grid and sigma are reconstructed from the sidecar (a sidecar
    without sigma reads as None); lattice coordinates in the CSV are
    cross-checked against the grid, and a malformed pair raises
    ValidationError.  The field derives ``normalized`` from the values.
    """
    csv_path = Path(csv_path)
    sidecar = csv_path.with_suffix(".meta.json")
    if not csv_path.exists() or not sidecar.exists():
        raise ValidationError(f"missing density CSV or sidecar for {csv_path}")
    try:  # invalid JSON, no "grid", no data rows or a cell that is not a number
        meta = json.loads(sidecar.read_text())
        grid = Grid.from_dict(meta["grid"])
        rows = csv_path.read_text().splitlines()[1:]
        if not any(rows):  # np.loadtxt would only warn
            raise ValueError("no data rows")
        raw = np.loadtxt(rows, delimiter=",", ndmin=2, comments=None)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed density CSV or sidecar for {csv_path}: {exc!r}") from exc
    if raw.shape != (grid.size, grid.d + 1):
        raise ValidationError(
            f"CSV shape {raw.shape} does not match grid ({grid.size} x {grid.d + 1})"
        )
    if not np.allclose(raw[:, : grid.d], grid.points(), rtol=0, atol=1e-12):
        raise ValidationError("CSV lattice coordinates disagree with sidecar grid")
    return DensityField(grid=grid, values=raw[:, -1], sigma=meta.get("sigma"))
