import numpy as np
import pytest

import cfmoll as cm
from cfmoll import Grid, MollificationParams, ValidationError


def test_grid_parse_and_geometry():
    g = Grid.parse("-8:8:512,-4:4:64")
    assert g.d == 2
    assert g.shape == (512, 64)
    assert g.size == 512 * 64
    assert g.spacings[0] == pytest.approx(16 / 511)
    assert g.cell_volume == pytest.approx((16 / 511) * (8 / 63))
    pts = g.points()
    assert pts.shape == (g.size, 2)
    # row-major: second axis varies fastest
    assert pts[0, 0] == pts[1, 0] == -8.0
    assert pts[1, 1] > pts[0, 1]


def test_grid_axis_points_hit_endpoints():
    g = Grid(axes=((-3.0, 5.0, 17),))
    z = g.axis_points(0)
    assert z[0] == -3.0 and z[-1] == 5.0
    assert np.allclose(np.diff(z), g.spacings[0])


def test_grid_validation():
    for bad in ("1:0:16", "0:1:1", "0:1", "a:b:c"):
        with pytest.raises(ValidationError):
            Grid.parse(bad)
    with pytest.raises(ValidationError):
        Grid(axes=())


def test_grid_dict_round_trip():
    g = Grid.parse("-2:2:33")
    assert Grid.from_dict(g.to_dict()) == g


def test_density_field_validation():
    g = Grid(axes=((0.0, 1.0, 3),))
    with pytest.raises(ValidationError):
        cm.DensityField(g, np.ones(4), False)  # wrong length
    with pytest.raises(ValidationError):
        cm.DensityField(g, np.array([1.0, np.inf, 0.0]), False)
    field = cm.DensityField(g, np.array([1.0, -1e-7, 1.0]), False)
    field.check_invariants()  # tiny ripple is allowed
    with pytest.raises(ValidationError):
        cm.DensityField(g, np.array([1.0, -1e-3, 1.0]), False).check_invariants()
    # normalization claim is checked against the Riemann sum
    with pytest.raises(ValidationError):
        cm.DensityField(g, np.array([9.0, 9.0, 9.0]), True).check_invariants()


def test_density_csv_round_trip(tmp_path):
    g = Grid(axes=((-1.0, 1.0, 9), (0.0, 2.0, 5)))
    rng = np.random.default_rng(0)
    raw = rng.uniform(0.1, 1.0, g.size)
    field = cm.DensityField(g, raw / (raw.sum() * g.cell_volume), True)
    path = tmp_path / "field.csv"
    sidecar = cm.write_density_csv(field, path, MollificationParams(sigma=0.5))
    again = cm.read_density_csv(path)
    assert again.grid == g
    assert np.array_equal(again.values, field.values)  # 17 digits survive exactly
    assert again.normalized
    assert sidecar.name == "field.meta.json"


# values whose .17g text is easy to get wrong: zero, a subnormal, 0.1, 1/3
AWKWARD = [0.0, 5e-324, 0.1, 1.0 / 3.0, 2.0 / 3.0, 1e-300, 0.7]


def _reference_density_csv(field) -> str:
    """The row-by-row writer the vectorized one must match byte for byte."""
    lines = [",".join(f"z{j + 1}" for j in range(field.grid.d)) + ",density"]
    for row, v in zip(field.grid.points(), field.values):
        lines.append(",".join(format(float(c), ".17g") for c in row) + "," + format(float(v), ".17g"))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("axes", [
    ((-1.0 / 3.0, 0.7, 7),),
    ((-8.0, 8.0, 5), (0.1, 0.3, 3)),
    ((-6.1, 6.1, 4), (-1.0 / 3.0, 2.0 / 3.0, 3), (0.0, 1e-3, 2)),
])
def test_density_csv_matches_row_formatter(tmp_path, axes):
    grid = Grid(axes=axes)
    values = np.resize(AWKWARD, grid.size) * np.where(np.arange(grid.size) % 3 == 2, -1.0, 1.0)
    field = cm.DensityField(grid=grid, values=values, normalized=False)
    path = tmp_path / "f.csv"
    cm.write_density_csv(field, path)
    assert path.read_text() == _reference_density_csv(field)
