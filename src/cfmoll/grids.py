"""Rectangular lattices, sampled densities, and quadrature parameters.

A Grid is a tensor product of uniform 1-d lattices including both
endpoints.  A DensityField holds real density samples over a grid in
row-major axis order and the smoothing scale they were computed at;
their normalization is read off them.  Riemann sums use the plain
cell-volume rule: sum(values) * prod(h_j).
"""

from __future__ import annotations

import functools
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

# .17g text is built in fixed uint8 cells per value (0 = unused, deleted when
# a chunk is written): sign, a "0.000" prefix, 17 digits each followed by a
# slot for the decimal point, "e", the exponent's sign and three digits, and
# one slot the CSV writer fills with the separator.
_CELL_DIGIT = 6           # digit i sits in cell _CELL_DIGIT + 2 i, its point slot after it
_CELL_EXP = _CELL_DIGIT + 34
_CELLS = _CELL_EXP + 6
# Values the double-double product handles; the rest go to Python's format.
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
# The tables hold 10^k for k in [_POW_MIN, _POW_MAX], every power 10^(16 - x)
# the fast path can need, at index 16 - x - _POW_MIN.
_POW_MIN, _POW_MAX = -266, 299
# The product's fraction is within 5e-15 of the true one (see
# write_density_csv), so a fraction this far from 1/2 rounds the right way.
_TIE_MARGIN = 1e-6
_CSV_CHUNK_ROWS = 1 << 14


@functools.cache
def _powers_of_ten() -> np.ndarray:
    """Rows (hi, lo, hi's high half, hi's low half) of 10^k: hi is 10^k
    rounded to a double and lo the rounded rest, from exact integer
    arithmetic; the halves split hi for Dekker's product."""
    hi, lo = [], []
    for k in range(_POW_MIN, _POW_MAX + 1):
        ten = 10 ** abs(k)
        if k >= 0:
            h = float(ten)
            rest = float(ten - int(h))
        else:  # int / int is correctly rounded
            h = 1 / ten
            num, den = h.as_integer_ratio()
            rest = (den - num * ten) / (den * ten)
        hi.append(h)
        lo.append(rest)
    hi = np.array(hi)
    big = hi * 134217729.0  # Veltkamp's split, 2^27 + 1
    high = big - (big - hi)
    return np.stack([hi, np.array(lo), high, hi - high])


@functools.cache
def _exponent_cells() -> np.ndarray:
    """Rows of the text a decimal exponent x sets, by the index of 10^(16 - x):
    cells 0-4 the fixed-notation prefix "0." and -x - 1 zeros (x in
    [-4, -1]), cells 5-9 the exponent "e", its sign and two or three
    digits (x outside [-4, 16])."""
    cells = np.zeros((10, _POW_MAX - _POW_MIN + 1), np.uint8)
    for k in range(_POW_MIN, _POW_MAX + 1):
        x = 16 - k
        prefix = "0." + "0" * (-x - 1) if -4 <= x < 0 else ""
        exponent = "" if -4 <= x < 17 else f"e{x:+03d}"
        for row, text in ((0, prefix), (5, exponent)):
            cells[row : row + len(text), k - _POW_MIN] = np.frombuffer(text.encode(), np.uint8)
    return cells


def _scaled_digits(a: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer and fractional parts of a * 10^(16 - x) for a > 0: Dekker's
    error-free product of a and the double-double power, then its rest."""
    hi, lo, high, low = _powers_of_ten()[:, 16 - x - _POW_MIN]
    p = a * hi
    big = a * 134217729.0
    a_high = big - (big - a)
    a_low = a - a_high
    err = ((a_high * high - p) + a_high * low + a_low * high) + a_low * low
    whole = np.floor(p)
    rest = (p - whole) + (err + a * lo)
    carry = np.floor(rest)
    return whole.astype(np.int64) + carry.astype(np.int64), rest - carry


def _format_17g(values: np.ndarray) -> np.ndarray:
    """The text of ``format(v, ".17g")`` for each value, as uint8 cells of
    shape ``values.shape + (_CELLS,)`` (layout above; 0 marks an unused
    cell).  Values the fast path cannot prove are formatted by Python."""
    v = np.asarray(values, dtype=np.float64)
    shape = v.shape
    v = v.reshape(-1)
    a = np.abs(v)
    zero = a == 0.0
    fast = (a >= _FAST_MIN) & (a < _FAST_MAX)
    a[~fast] = 1.0
    x = np.floor(np.log10(a)).astype(np.int64)
    n, frac = _scaled_digits(a, x)
    # log10 can be one off next to a power of ten: one more product fixes it
    off = np.flatnonzero((n < 10**16) | (n >= 10**17))
    if off.size:
        x[off] += np.where(n[off] < 10**16, -1, 1)
        n[off], frac[off] = _scaled_digits(a[off], x[off])
    slow = ~zero & ~(fast & (n >= 10**16) & (n < 10**17) & (np.abs(frac - 0.5) > _TIE_MARGIN))
    n += frac > 0.5
    top = n == 10**17
    n[top] = 10**16
    x[top] += 1
    n[zero] = 10**16  # "1" with x = 0, its digit then written as "0"
    x[zero] = 0

    # built one cell row at a time, transposed on return; the digits come
    # right to left from two halves small enough for uint32 division
    cells = np.zeros((_CELLS, v.size), np.uint8)
    digits = cells[_CELL_DIGIT:_CELL_EXP:2]
    high, low = np.divmod(n, 10**8)
    for part, first, last in ((low.astype(np.uint32), 9, 16), (high.astype(np.uint32), 0, 8)):
        for i in range(last, first - 1, -1):
            rest = part // 10
            digits[i] = part - rest * 10
            part = rest
    place = np.arange(17, dtype=np.uint8)[:, None]
    sig = np.max((digits != 0) * (place + 1), axis=0)   # significant digits kept
    fixed = (x >= -4) & (x < 17)
    shown = np.where(fixed & (x > 0), np.maximum(sig, x + 1), sig).astype(np.uint8)
    digits += ord("0")
    digits *= place < shown
    digits[0, zero] = ord("0")
    cells[0] = np.signbit(v) * np.uint8(ord("-"))
    around = _exponent_cells()[:, 16 - x - _POW_MIN]
    cells[1:_CELL_DIGIT] = around[:5]
    cells[_CELL_EXP : _CELL_EXP + 5] = around[5:]
    point = np.flatnonzero(np.where(fixed, (x >= 0) & (sig > x + 1), sig > 1))
    after = np.where(fixed[point], x[point], 0)    # the digit the point follows
    cells.reshape(-1)[(_CELL_DIGIT + 1 + 2 * after) * v.size + point] = ord(".")
    cells = cells.T
    for i in np.flatnonzero(slow):
        text = np.frombuffer(format(float(v[i]), ".17g").encode(), np.uint8)
        cells[i] = 0
        cells[i, : len(text)] = text
    return cells.reshape(shape + (_CELLS,))


def _packed(cells: np.ndarray) -> np.ndarray:
    """Rows of ``_format_17g`` cells with the used cells moved to the front,
    as wide as the longest row."""
    cells = np.ascontiguousarray(cells)
    keep = cells != 0
    used = np.count_nonzero(keep, axis=1)
    packed = np.zeros((len(cells), int(used.max())), np.uint8)
    packed[np.arange(packed.shape[1]) < used[:, None]] = cells[keep]
    return packed


def _write_csv(path: Path, header: str, n_rows: int, row_cells) -> None:
    """Write ``header`` and then ``n_rows`` rows ``_CSV_CHUNK_ROWS`` at a
    time: ``row_cells(lo, hi)`` gives the text of rows [lo, hi),
    separators included, as uint8 cells in which 0 marks an unused cell."""
    with open(path, "wb") as out:
        out.write(header.encode() + b"\n")
        for lo in range(0, n_rows, _CSV_CHUNK_ROWS):
            cells = row_cells(lo, min(lo + _CSV_CHUNK_ROWS, n_rows))
            out.write(cells.tobytes().translate(None, b"\0"))


def write_density_csv(
    field: DensityField,
    csv_path: str | Path,
    params: MollificationParams | None = None,
) -> Path:
    """Write "z1,...,zd,density" rows (17 significant digits, row-major)
    and a sidecar <stem>.meta.json with grid, params, the field's sigma
    and its normalization residual and flag.  Returns the sidecar path.

    Every number is written as the bytes of ``format(v, ".17g")``, which
    reads back to the same double, but without formatting values one by
    one in Python.  A value's 17 digits are the integer nearest
    P = |v| 10^(16 - x), x = floor(log10 |v|), and P is computed as
    Dekker's error-free product p + e of |v| and the high part of a
    double-double 10^(16 - x), plus |v| times its low part.  For P in
    [10^16, 10^17) p is a whole number and |e| <= 8, so the fraction of P
    is e + |v| lo, whose error is at most 1e17 * 2^-106 (the table) plus
    three roundings of terms below 16, under 5e-15 in all.  The fraction
    therefore rounds the right way unless it lies within ``_TIE_MARGIN``
    of 1/2; such values (exact ties included), |v| outside
    [1e-280, 1e280) and a product that lands outside [10^16, 10^17) after
    one correction of x go to Python's correctly rounded ``format``.  The
    CSV is written ``_CSV_CHUNK_ROWS`` rows at a time, so the text held in
    memory is bounded whatever the grid size."""
    csv_path = Path(csv_path)
    grid = field.grid
    header = ",".join(f"z{j + 1}" for j in range(grid.d)) + ",density"
    # each axis coordinate is formatted once, with its comma, and gathered
    # row-major per chunk
    axes = []
    for j in range(grid.d):
        cells = _format_17g(grid.axis_points(j))
        cells[:, -1] = ord(",")
        axes.append(_packed(cells))
    width = sum(text.shape[1] for text in axes)

    def row_cells(lo: int, hi: int) -> np.ndarray:
        cells = np.empty((hi - lo, width + _CELLS), np.uint8)
        start = 0
        for text, index in zip(axes, np.unravel_index(np.arange(lo, hi), grid.shape)):
            cells[:, start : start + text.shape[1]] = text[index]
            start += text.shape[1]
        cells[:, width:] = _format_17g(field.values[lo:hi])
        cells[:, -1] = ord("\n")
        return cells

    _write_csv(csv_path, header, grid.size, row_cells)

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
