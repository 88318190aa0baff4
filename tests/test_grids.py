import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cfmoll as cm
from cfmoll import Grid, MollificationParams, ValidationError
from cfmoll import grids


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
    # a fractional count is not cut to an integer; integral ones pass
    with pytest.raises(ValidationError, match="integer"):
        Grid(axes=((-1.0, 1.0, 3.7),))
    assert Grid(axes=((-1.0, 1.0, 3.0), (0.0, 1.0, np.int64(2)))).axes == ((-1.0, 1.0, 3), (0.0, 1.0, 2))


def test_grid_dict_round_trip():
    g = Grid.parse("-2:2:33")
    assert Grid.from_dict(g.to_dict()) == g


def test_density_field_validation():
    g = Grid(axes=((0.0, 1.0, 3),))
    with pytest.raises(ValidationError):
        cm.DensityField(g, np.ones(4))  # wrong length
    with pytest.raises(ValidationError):
        cm.DensityField(g, np.array([1.0, np.inf, 0.0]))
    with pytest.raises(ValidationError, match="sigma"):
        cm.DensityField(g, np.ones(3), sigma=True)
    field = cm.DensityField(g, np.array([1.0, -1e-7, 1.0]))
    field.check_invariants()  # tiny ripple is allowed
    with pytest.raises(ValidationError):
        cm.DensityField(g, np.array([1.0, -1e-3, 1.0])).check_invariants()
    # the negativity tolerance is the contract's constant, not an argument
    with pytest.raises(TypeError):
        field.check_invariants(1e-2)
    # normalization is read off the values, not claimed: the cell volume is
    # 0.5, so a Riemann sum of 1 +- 1e-3 reads True and any other False
    for values, normalized in [([9.0, 9.0, 9.0], False), ([0.5, 1.0, 0.5], True),
                               ([0.5, 1.0, 0.5019], True), ([0.5, 1.0, 0.5021], False)]:
        field = cm.DensityField(g, np.array(values))
        assert field.normalized is normalized
        field.check_invariants()  # the flag is no claim to check
    with pytest.raises(TypeError):
        cm.DensityField(g, np.ones(3), normalized=True)


def test_density_csv_round_trip(tmp_path):
    g = Grid(axes=((-1.0, 1.0, 9), (0.0, 2.0, 5)))
    rng = np.random.default_rng(0)
    raw = rng.uniform(0.1, 1.0, g.size)
    field = cm.DensityField(g, raw / (raw.sum() * g.cell_volume))
    path = tmp_path / "field.csv"
    sidecar = cm.write_density_csv(field, path, MollificationParams())
    again = cm.read_density_csv(path)
    assert again.grid == g
    assert np.array_equal(again.values, field.values)  # 17 digits survive exactly
    assert again.normalized
    assert sidecar.name == "field.meta.json"


def test_density_csv_sigma_round_trip(tmp_path):
    # the sidecar records the scale the field was computed at, and the
    # node count the plan used when params left it to the default
    spec = cm.Gaussian(mean=[0.0], cov=[[1.0]])
    cf = cm.make_cf(spec)
    grid = Grid(axes=((-8.0, 8.0, 65),))
    fields = {
        "smoothed": (cm.mollified_density_grid(cf, 0.5, grid), 0.5),
        "inverted": (cm.invert_density_grid(cf, grid), 0.0),
        "histogram": (cm.mollified_histogram(spec, 0.7, grid, 1000, 3), 0.7),
        "by_hand": (cm.DensityField(grid, np.ones(65) / 16.0), None),
    }
    for name, (field, sigma) in fields.items():
        assert field.sigma == sigma
        path = tmp_path / f"{name}.csv"
        sidecar = cm.write_density_csv(field, path, MollificationParams(tail_tol=1e-10))
        meta = json.loads(sidecar.read_text())
        assert meta["sigma"] == sigma
        assert meta["params"] == {"truncation_radius": None, "nodes_per_axis": 512,
                                  "tail_tol": 1e-10}
        assert cm.read_density_csv(path).sigma == sigma
    # a sidecar written before sigma was recorded reads as unknown
    meta.pop("sigma")
    sidecar.write_text(json.dumps(meta))
    assert cm.read_density_csv(path).sigma is None
    for bad in ("0.5", -1.0, float("inf"), [0.5], True):
        sidecar.write_text(json.dumps({**meta, "sigma": bad}))
        with pytest.raises(ValidationError, match="sigma"):
            cm.read_density_csv(path)


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
    # one chunk and two rows: -0.0 and negative values on both sides of the
    # chunk boundary
    ((-1.0, 1.0, 2), (0.0, 0.3, 3), (-2.5, 2.5, 2731)),
])
def test_density_csv_matches_row_formatter(tmp_path, axes):
    grid = Grid(axes=axes)
    values = np.resize(AWKWARD, grid.size) * np.where(np.arange(grid.size) % 3 == 2, -1.0, 1.0)
    field = cm.DensityField(grid=grid, values=values)
    path = tmp_path / "f.csv"
    cm.write_density_csv(field, path)
    assert path.read_text() == _reference_density_csv(field)


def test_density_csv_memory_is_bounded(tmp_path):
    # the text is built a chunk of rows at a time: a 48^3 field (8.4 MiB
    # of CSV) peaks far below the whole file
    grid = Grid(axes=((-6.0, 6.0, 48),) * 3)
    r2 = np.sum(grid.points() ** 2, axis=1)
    field = cm.DensityField(grid, np.exp(-r2 / 2) / (2 * np.pi) ** 1.5)
    cm.write_density_csv(field, tmp_path / "warm.csv")
    tracemalloc.start()
    try:
        cm.write_density_csv(field, tmp_path / "f.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "f.csv").stat().st_size > 8 * 2**20
    assert peak <= 12 * 2**20


def _formatted(values) -> list[str]:
    """The kernel's text of each value, one string per value."""
    cells = grids._format_17g(np.asarray(values, dtype=float))
    cells[:, -1] = ord("\n")
    return cells.tobytes().translate(None, b"\0").decode().split("\n")[:-1]


def _assert_formats_like_python(values):
    values = np.asarray(values, dtype=float)
    got = _formatted(values)
    want = [format(v, ".17g") for v in values.tolist()]
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) and not bad, bad[:5]


def test_format_17g_random_bit_patterns():
    rng = np.random.default_rng(2028)
    bits = rng.integers(0, 2**64, size=1_000_000, dtype=np.uint64).view(np.float64)
    bits = bits[np.isfinite(bits)]
    assert np.signbit(bits).any() and not np.signbit(bits).all()
    for start in range(0, bits.size, 100_000):
        _assert_formats_like_python(bits[start : start + 100_000])


def _neighbours(v):
    return [np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)]


def test_format_17g_edges():
    values = [0.0, 5e-324, 1e-323, 2.2250738585072009e-308, 2.2250738585072014e-308,
              1.7976931348623157e308, np.nextafter(1e23, 0.0), 2.0**-25, 2.0**60, 123.0, 0.5]
    values += _neighbours(1e-280) + _neighbours(1e280)
    values += [x for k in range(-30, 31) for x in _neighbours(float(f"1e{k}"))]
    # the fixed/exponent switch and three-digit exponents
    values += [1e-4, 1.5e-4, 9.9999999999999991e-5, 1e-5, 1e16, 9.9999999999999998e16, 1e17,
               1.5e16, 1e100, 1e-100, 3.3e-300, 4.5e299, 1e-99, 1e99]
    values = np.array(values)
    _assert_formats_like_python(np.concatenate([values, -values]))


@settings(max_examples=500, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_17g_matches_python(v):
    assert _formatted([v]) == [format(v, ".17g")]


def test_format_17g_fast_path_covers_lognormal_values(monkeypatch):
    # count the values left to Python's format: a kernel that sent them all
    # there would still be byte-exact, but slow
    calls = []

    def counted(value, spec):
        calls.append(value)
        return format(value, spec)

    values = np.random.default_rng(5).lognormal(0.0, 4.0, 100_000)
    monkeypatch.setattr(grids, "format", counted, raising=False)
    got = _formatted(values)
    monkeypatch.undo()
    assert got == [format(v, ".17g") for v in values.tolist()]
    assert len(calls) <= 100


def _window_test(field) -> bool:
    return abs(float(np.sum(field.values)) * field.grid.cell_volume - 1.0) <= 1e-3


def test_normalized_is_derived_from_the_values(tmp_path):
    # every producer's flag is the window test on its own values, a bool
    spec = cm.Laplace1D(scale=1.0)
    cf = cm.make_cf(spec)
    fields = {
        "smoothed": cm.mollified_density_grid(cf, 0.5, Grid.parse("-12:12:241")),
        "partial_inversion": cm.invert_density_grid(cf, Grid.parse("-1:1:41")),
        "histogram": cm.mollified_histogram(spec, 0.5, Grid.parse("-12:12:97"), 2000, 5),
        "histogram_partial": cm.mollified_histogram(spec, 0.5, Grid.parse("-1:1:9"), 2000, 5),
    }
    for name, field in fields.items():
        assert type(field.normalized) is bool
        assert field.normalized is _window_test(field), name
        path = tmp_path / f"{name}.csv"
        cm.write_density_csv(field, path)
        assert json.loads(path.with_suffix(".meta.json").read_text())["normalized"] is field.normalized
        again = cm.read_density_csv(path)
        assert again.normalized is _window_test(again) is field.normalized, name
    assert not fields["partial_inversion"].normalized and not fields["histogram_partial"].normalized
    assert fields["smoothed"].normalized and fields["histogram"].normalized


def test_read_density_csv_ignores_the_sidecar_flag(tmp_path):
    # a sidecar whose "normalized" disagrees with the values, or lacks it,
    # reads as the values say
    grid = Grid.parse("0:1:3")
    path = tmp_path / "f.csv"
    sidecar = cm.write_density_csv(cm.DensityField(grid, np.array([0.5, 1.0, 0.5])), path)
    meta = json.loads(sidecar.read_text())
    for stored in (False, "yes", None):
        sidecar.write_text(json.dumps({**meta, "normalized": stored}))
        assert cm.read_density_csv(path).normalized is True
    meta.pop("normalized")
    sidecar.write_text(json.dumps(meta))
    assert cm.read_density_csv(path).normalized is True


@pytest.mark.parametrize("sidecar_text, csv_edit", [
    ("{not json", None),
    ("[1, 2]", None),
    ('{"sigma": null}', None),
    ('{"grid": 3}', None),
    ('{"grid": {"axes": 3}}', None),
    ('{"grid": {"axes": [[0.0, 1.0, 3]]}}', ("0.5", "abc")),
    ('{"grid": {"axes": [[0.0, 1.0, 3]]}}', ("0.5,", "0.5,1,")),
    ('{"grid": {"axes": [[0.0, 1.0, 4]]}}', None),
    ('{"grid": {"axes": [[0.0, 1.0, 3]]}}', ("0,0.5\n0.5,1\n1,0.5\n", "")),
], ids=["bad_json", "not_an_object", "no_grid", "grid_not_a_dict", "axes_not_a_list",
        "bad_cell", "extra_column", "wrong_size", "header_only"])
def test_read_density_csv_rejects_malformed_files(tmp_path, sidecar_text, csv_edit):
    path = tmp_path / "f.csv"
    sidecar = cm.write_density_csv(cm.DensityField(Grid.parse("0:1:3"), np.array([0.5, 1.0, 0.5])), path)
    sidecar.write_text(sidecar_text)
    if csv_edit is not None:
        path.write_text(path.read_text().replace(*csv_edit, 1))
    with pytest.raises(ValidationError):
        cm.read_density_csv(path)


def test_points_are_typed_lattice_rows_from_2d():
    from cfmoll.charfn import LatticeRows

    assert type(Grid.parse("-1:1:5").points()) is np.ndarray
    grid = Grid.parse("-1:1:3,0:2:4,-3:3:5")
    pts = grid.points()
    assert type(pts) is LatticeRows and pts.shape == (60, 3)
    lead, last = pts.lattice
    assert np.array_equal(last, grid.axis_points(2))
    assert np.array_equal(lead, pts[::5, :2])
    # the rows the layout states are the points
    rebuilt = np.concatenate([np.column_stack([np.tile(r, (5, 1)), last]) for r in lead])
    assert np.array_equal(rebuilt, np.asarray(pts))
