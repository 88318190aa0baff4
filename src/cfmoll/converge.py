"""Quantitative weak-convergence diagnostics.

Three ingredients are measured for a sequence of characteristic functions
against a target:

- pointwise CF error sup_t |chi_n(t) - chi(t)| over a probe set,
- L1 distance between Gaussian-smoothed densities at scales sigma_k = 1/k
  (pointwise density convergence upgrades to L1 by Scheffe's theorem),
- the smoothing remainder P(||Z||_inf > k * epsilon) for a standard normal
  Z, which bounds how far smoothing at scale 1/k moves any law.

The scales are always 1/k: the remainder column is a bound for smoothing
at exactly that scale, so no other schedule is accepted.

The certificate reports raw numbers and monotonicity flags only; a finite
computation cannot decide a limit, so interpreting them is the caller's
job.  The max norm is used for all boxes and tails: Gaussian tails then
factor per axis and the bounds are exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .charfn import CharFn, LatticeRows, whole_number
from .errors import ValidationError
from .grids import DensityField, Grid, MollificationParams
from .mollify import mollified_density_grid

PROBES_PER_AXIS = 129
PROBE_BUDGET = 1 << 16
PROBE_HALF_WIDTH = 5.0


def l1_distance(a: DensityField, b: DensityField) -> float:
    """Riemann-sum L1 distance between two fields on the same grid."""
    if a.grid != b.grid:
        raise ValidationError("density fields live on different grids")
    return float(np.sum(np.abs(a.values - b.values)) * a.grid.cell_volume)


def tv_distance(a: DensityField, b: DensityField) -> float:
    """Total-variation distance: half the L1 distance between densities."""
    return 0.5 * l1_distance(a, b)


def default_probes(d: int) -> np.ndarray:
    """Tensor probe lattice, uniform on [-5, 5]^d: the largest n <= 129
    points per axis with n^d <= 2^16, so 129 up to d = 2, 40 in 3-d and
    16 in 4-d.  In d >= 2 it is a ``charfn.LatticeRows`` block
    (``Grid.points``)."""
    n = PROBES_PER_AXIS
    while n**d > PROBE_BUDGET:
        n -= 1
    return Grid(axes=((-PROBE_HALF_WIDTH, PROBE_HALF_WIDTH, n),) * d).points()


def cf_sup_error(cf_n: CharFn, cf_target: CharFn, probes=None) -> float:
    """max over probes of |chi_n(t) - chi_target(t)|.  A
    ``charfn.LatticeRows`` probe block keeps its type and row layout."""
    if cf_n.d != cf_target.d:
        raise ValidationError(f"dimension mismatch: {cf_n.d} != {cf_target.d}")
    if probes is None:
        probes = default_probes(cf_n.d)
    pts = probes if isinstance(probes, LatticeRows) else np.asarray(probes, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[0] == 0:
        raise ValidationError("probe set must be nonempty")
    if pts.shape[1] != cf_n.d:
        raise ValidationError(f"probes have dimension {pts.shape[1]}, CF has {cf_n.d}")
    return float(np.max(np.abs(cf_n.batch_eval(pts) - cf_target.batch_eval(pts))))


def gaussian_tail_prob(k: int, epsilon: float, d: int) -> float:
    """P(||Z||_inf > k * epsilon) for Z standard normal on R^d:
    1 - erf(k epsilon / sqrt(2))^d.  Strictly decreasing in k and epsilon,
    increasing in d at fixed k*epsilon.  Computed as -expm1(d log erf), with
    log erf taken from erfc where erf is near 1, so small tails keep their
    relative accuracy instead of cancelling to 0."""
    k = whole_number(k, "k", 1)
    epsilon = float(epsilon)
    d = whole_number(d, "dimension", 1)
    if not (epsilon > 0):
        raise ValidationError(f"epsilon must be positive, got {epsilon!r}")
    x = k * epsilon / math.sqrt(2.0)
    log_inside = math.log(math.erf(x)) if x < 0.5 else math.log1p(-math.erfc(x))
    return -math.expm1(d * log_inside)


def mass_in_box(field: DensityField, radius: float) -> float:
    """Riemann mass over lattice points with ||z||_inf <= radius."""
    radius = float(radius)
    if not (radius > 0):
        raise ValidationError(f"radius must be positive, got {radius!r}")
    for lo, hi, _ in field.grid.axes:
        if -radius < lo or radius > hi:
            raise ValidationError(
                f"box [-{radius}, {radius}]^d exceeds the grid extent [{lo}, {hi}]"
            )
    grid = field.grid
    masks = [np.abs(grid.axis_points(j)) <= radius * (1.0 + 1e-15) for j in range(grid.d)]
    block = field.values.reshape(grid.shape)[np.ix_(*masks)]
    return float(np.sum(block) * grid.cell_volume)


@dataclass(frozen=True)
class ConvergenceReport:
    """Error decomposition for a CF sequence versus its target.

    ``l1_mollified[i][j]`` is the L1 distance between the smoothed
    densities of sequence member i and the target at scale
    ``sigma_schedule[j]`` = 1/k_j; ``smoothing_remainder[j]`` is
    P(||Z||_inf > k_j * epsilon).  ``sigma_schedule``, ``monotone_flags``
    (whether each L1 column is nonincreasing along the sequence) and
    ``final_l1`` are read off the stored fields; ``to_dict`` writes them
    too, and ``from_dict`` ignores them.
    """

    SCHEMA_VERSION = 1  # not annotated, so a class constant, not a field

    seq_labels: tuple[int, ...]
    k_schedule: tuple[int, ...]
    epsilon: float
    cf_sup_error: tuple[float, ...]
    l1_mollified: tuple[tuple[float, ...], ...]
    smoothing_remainder: tuple[float, ...]

    @property
    def sigma_schedule(self) -> tuple[float, ...]:
        return tuple(1.0 / k for k in self.k_schedule)

    @property
    def monotone_flags(self) -> tuple[bool, ...]:
        return tuple(all(b <= a for a, b in zip(c, c[1:])) for c in zip(*self.l1_mollified))

    @property
    def final_l1(self) -> float:
        return self.l1_mollified[-1][-1]

    def to_dict(self) -> dict:
        return {
            "schema_version": self.SCHEMA_VERSION,
            "seq_labels": list(self.seq_labels),
            "k_schedule": list(self.k_schedule),
            "sigma_schedule": list(self.sigma_schedule),
            "epsilon": self.epsilon,
            "cf_sup_error": list(self.cf_sup_error),
            "l1_mollified": [list(row) for row in self.l1_mollified],
            "smoothing_remainder": list(self.smoothing_remainder),
            "monotone_flags": list(self.monotone_flags),
            "final_l1": self.final_l1,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ConvergenceReport":
        """Rebuild a report from ``to_dict`` output, reading only the stored
        keys.  A missing ``schema_version`` reads as 1; another version, a
        missing key or a malformed value raises ValidationError."""
        try:
            version = d.get("schema_version", cls.SCHEMA_VERSION)
            if version != cls.SCHEMA_VERSION:
                raise ValidationError(f"unsupported report schema_version {version!r}")
            report = cls(
                seq_labels=tuple(d["seq_labels"]),
                k_schedule=tuple(whole_number(k, "k_schedule entry", 1) for k in d["k_schedule"]),
                epsilon=float(d["epsilon"]),
                cf_sup_error=tuple(d["cf_sup_error"]),
                l1_mollified=tuple(tuple(row) for row in d["l1_mollified"]),
                smoothing_remainder=tuple(d["smoothing_remainder"]),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed convergence report: {exc!r}") from exc
        n, m = len(report.seq_labels), len(report.k_schedule)
        if n * m == 0 or [len(row) for row in report.l1_mollified] != [m] * n:
            raise ValidationError(f"report's l1_mollified is not a {n} x {m} table")
        return report

    def write_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    def write_csv(self, path: str | Path) -> None:
        """Flatten to rows (n, k, l1, remainder) for plotting."""
        lines = ["n,k,l1_mollified,smoothing_remainder"]
        for i, n in enumerate(self.seq_labels):
            for j, k in enumerate(self.k_schedule):
                lines.append(
                    f"{n},{k},{self.l1_mollified[i][j]:.17g},"
                    f"{self.smoothing_remainder[j]:.17g}"
                )
        Path(path).write_text("\n".join(lines) + "\n")


def convergence_certificate(
    seq: list[CharFn],
    target: CharFn,
    k_schedule: list[int],
    grid: Grid,
    epsilon: float,
    params: MollificationParams | None = None,
    seq_labels: list[int] | None = None,
    workers: int = 1,
) -> ConvergenceReport:
    """Assemble the three diagnostics for a CF sequence against a target.

    The smoothing scales are sigma_k = 1/k over k_schedule, the scales whose
    remainder P(||Z||_inf > k epsilon) the report records.  The target's
    smoothed density is computed once per scale and shared across the
    sequence.
    """
    if not seq:
        raise ValidationError("sequence of CFs must be nonempty")
    if any(cf.d != target.d for cf in seq):
        raise ValidationError("all CFs must share the target's dimension")
    if grid.d != target.d:
        raise ValidationError(f"grid dimension {grid.d} != CF dimension {target.d}")
    ks = [whole_number(k, "k_schedule entry", 1) for k in k_schedule]
    if not ks or any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValidationError(f"k_schedule must be increasing positive ints, got {k_schedule}")
    epsilon = float(epsilon)
    if not (epsilon > 0):
        raise ValidationError(f"epsilon must be positive, got {epsilon!r}")
    sigmas = [1.0 / k for k in ks]
    if seq_labels is None:
        labels = list(range(1, len(seq) + 1))
    else:
        labels = [whole_number(x, "seq_labels entry", 0) for x in seq_labels]
        if len(labels) != len(seq):
            raise ValidationError("seq_labels must match the sequence length")

    sup_errors = [cf_sup_error(cf, target) for cf in seq]
    target_fields = [mollified_density_grid(target, s, grid, params, workers) for s in sigmas]
    l1 = np.zeros((len(seq), len(ks)))
    for i, cf in enumerate(seq):
        for j, s in enumerate(sigmas):
            fld = mollified_density_grid(cf, s, grid, params, workers)
            l1[i, j] = l1_distance(fld, target_fields[j])
    remainders = [gaussian_tail_prob(k, epsilon, grid.d) for k in ks]

    return ConvergenceReport(
        seq_labels=tuple(labels),
        k_schedule=tuple(ks),
        epsilon=epsilon,
        cf_sup_error=tuple(float(x) for x in sup_errors),
        l1_mollified=tuple(tuple(float(x) for x in row) for row in l1),
        smoothing_remainder=tuple(float(r) for r in remainders),
    )
