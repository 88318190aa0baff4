import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import cfmoll as cm
import cfmoll.specs as sp
from cfmoll import (
    ValidationError,
    empirical_cf,
    l1_distance,
    make_cf,
    mc_tail_prob,
    mollified_density_grid,
    mollified_histogram,
    sample,
)
from tests.conftest import traced_peak_mb

PINS = json.loads((Path(__file__).parent / "fixtures" / "mc_pins.json").read_text())

# reruns must land on the calibrated value; a small band absorbs
# BLAS/platform reassociation in the reductions, nothing more
REPRO_RTOL = 1e-9


class TestSampling:
    def test_bit_identical_reproducibility(self, spec_zoo):
        for spec in spec_zoo:
            a = sample(spec, 257, 99)
            b = sample(spec, 257, 99)
            assert np.array_equal(a.points, b.points)
            assert a.points.shape == (257, spec.dim)

    def test_different_seeds_differ(self, std_gaussian):
        a = sample(std_gaussian, 100, 1)
        b = sample(std_gaussian, 100, 2)
        assert not np.array_equal(a.points, b.points)

    def test_point_mass_all_equal(self):
        batch = sample(cm.PointMass(location=[2.0, -1.0]), 50, 0)
        assert np.array_equal(batch.points, np.tile([2.0, -1.0], (50, 1)))

    def test_gaussian_mean_concentrates(self, std_gaussian):
        n = 100_000
        batch = sample(std_gaussian, n, 12345)
        assert abs(batch.points.mean()) <= 5.0 / np.sqrt(n)

    def test_convolution_support_arithmetic(self):
        spec = cm.Convolution(
            parts=(cm.UniformBox(lo=[-1.0], hi=[1.0]), cm.UniformBox(lo=[-1.0], hi=[1.0]))
        )
        batch = sample(spec, 10_000, 3)
        assert np.all(batch.points >= -2.0) and np.all(batch.points <= 2.0)

    def test_affine_and_product_shapes(self):
        spec = cm.AffineMap(
            matrix=[[1.0], [2.0]], shift=[0.0, 1.0], inner=cm.Laplace1D(scale=1.0)
        )
        batch = sample(spec, 64, 5)
        assert batch.points.shape == (64, 2)
        # second coordinate is an exact affine image of the first
        assert np.allclose(batch.points[:, 1], 2.0 * batch.points[:, 0] + 1.0)

    def test_standardized_sum_range(self, rademacher):
        spec = cm.StandardizedIIDSum(base=rademacher, n=16)
        batch = sample(spec, 1000, 8)
        assert np.all(np.abs(batch.points) <= 4.0 + 1e-12)

    def test_validation(self, std_gaussian):
        with pytest.raises(ValidationError):
            sample(std_gaussian, 0, 1)


class TestEmpiricalCf:
    def test_exactly_one_at_zero(self, std_gaussian):
        batch = sample(std_gaussian, 1000, 4)
        assert empirical_cf(batch, 0.0) == 1.0 + 0.0j

    def test_single_point_batch(self):
        batch = sample(cm.PointMass(location=[0.7]), 1, 0)
        t = 2.0
        assert empirical_cf(batch, t) == pytest.approx(np.exp(1j * t * 0.7), abs=1e-15)

    def test_gaussian_large_batch_near_closed_form(self, std_gaussian):
        pin = PINS["ecf_gaussian_t1"]
        batch = sample(std_gaussian, PINS["n"]["tail"], PINS["seeds"]["ecf_point"])
        val = empirical_cf(batch, 1.0)
        assert abs(val - np.exp(-0.5)) <= pin["budget"]
        assert val.real == pytest.approx(pin["real"], rel=REPRO_RTOL)
        assert val.imag == pytest.approx(pin["imag"], rel=REPRO_RTOL)

    def test_matches_make_cf_for_every_constructor(self):
        from tests.fixtures.calibrate_mc_pins import ECF_N, ECF_SEED, ecf_families

        rng = np.random.default_rng(555)
        for name, spec in ecf_families().items():
            pin = PINS["ecf_max_err"][name]
            batch = sample(spec, ECF_N, ECF_SEED)
            cf = make_cf(spec)
            probes = rng.uniform(-3.0, 3.0, size=(20, spec.dim))
            err = float(np.max(np.abs(empirical_cf(batch, probes) - cf(probes))))
            assert err <= pin["budget"]
            assert err == pytest.approx(pin["max_err"], rel=1e-6, abs=1e-12)

    def test_modulus_bounded(self, spec_zoo):
        rng = np.random.default_rng(31)
        for spec in spec_zoo[:5]:
            batch = sample(spec, 500, 77)
            probes = rng.uniform(-4, 4, size=(8, spec.dim))
            assert np.max(np.abs(empirical_cf(batch, probes))) <= 1.0 + 1e-12

    def test_dimension_mismatch(self):
        batch = sample(cm.PointMass(location=[0.0, 0.0]), 10, 0)
        with pytest.raises(ValidationError):
            empirical_cf(batch, np.zeros((3, 3)))

    def test_one_at_zero_over_many_chunks(self, monkeypatch):
        # chunks reorder the sum over the draws, which moves it by up to
        # about n eps; at 200 draws that stays under 1e-15
        batch = sample(cm.Gaussian(mean=[0.0, 1.0], cov=[[1.0, 0.3], [0.3, 0.5]]), 200, 5)
        probes = np.vstack([np.zeros(2), np.random.default_rng(3).normal(size=(9, 2))])
        whole = empirical_cf(batch, probes)
        for cap in (1, 37, 500):
            monkeypatch.setattr(sp, "ATOM_BLOCK", cap)
            assert empirical_cf(batch, np.zeros(2)) == 1.0 + 0.0j
            chunked = empirical_cf(batch, probes)
            assert chunked[0] == 1.0 + 0.0j
            assert np.max(np.abs(chunked - whole)) <= 1e-15

    def test_memory_does_not_grow_with_draws(self):
        # 1e6 draws x 129 probes: the (probes x draws) phase matrix would
        # take about 2 GB; in chunks the peak is the unit weights and two
        # chunk temporaries
        batch = sample(cm.Gaussian(mean=[0.0], cov=[[1.0]]), 1_000_000, 8)
        probes = np.linspace(-5.0, 5.0, 129)
        peak = traced_peak_mb(lambda: empirical_cf(batch, probes))
        assert peak < 32.0


class TestMcTailProb:
    def test_zero_radius_continuous_law(self, std_gaussian):
        assert mc_tail_prob(std_gaussian, 0.0, 10_000, 1) == 1.0

    def test_point_mass_inside(self):
        assert mc_tail_prob(cm.PointMass(location=[0.0]), 1.0, 100, 0) == 0.0

    def test_gaussian_quantile_pinned(self, std_gaussian):
        pin = PINS["gaussian_tail_196"]
        p = mc_tail_prob(std_gaussian, 1.96, PINS["n"]["tail"], PINS["seeds"]["tail"])
        assert abs(p - pin["reference"]) <= pin["budget"]
        assert p == pytest.approx(pin["observed"], abs=1e-12)


class TestMollifiedHistogram:
    def test_point_mass_histogram_is_normal(self):
        grid = cm.Grid(axes=((-8.0, 8.0, 256),))
        hist = mollified_histogram(cm.PointMass(location=[0.0]), 1.0, grid, 200_000, 6)
        quad = mollified_density_grid(make_cf(cm.PointMass(location=[0.0])), 1.0, grid)
        assert l1_distance(hist, quad) < 0.05
        assert hist.normalized

    def test_fixture_l1_pins(self):
        from tests.fixtures.calibrate_mc_pins import (
            HIST_GRID,
            HIST_N,
            HIST_SEED,
            HIST_SIGMA,
        )

        grid = cm.Grid(axes=HIST_GRID)
        fixtures = {
            "point_mass": cm.PointMass(location=[0.0]),
            "uniform": cm.UniformBox(lo=[-1.0], hi=[1.0]),
            "gaussian": cm.Gaussian(mean=[0.0], cov=[[1.0]]),
        }
        for name, spec in fixtures.items():
            pin = PINS["histogram_l1"][name]
            hist = mollified_histogram(spec, HIST_SIGMA, grid, HIST_N, HIST_SEED)
            quad = mollified_density_grid(make_cf(spec), HIST_SIGMA, grid)
            l1 = l1_distance(hist, quad)
            assert l1 <= pin["budget"]
            assert l1 == pytest.approx(pin["l1"], rel=1e-6, abs=1e-12)

    def test_smoothing_semigroup_pin(self):
        from tests.fixtures.calibrate_mc_pins import HIST_N, SEMIGROUP_SEEDS

        pin = PINS["semigroup_l1"]
        grid = cm.Grid(axes=((-8.0, 8.0, 256),))
        uniform = cm.UniformBox(lo=[-1.0], hi=[1.0])
        two_stage = cm.Convolution(parts=(uniform, cm.Gaussian(mean=[0.0], cov=[[0.25]])))
        h2 = mollified_histogram(two_stage, 0.5, grid, HIST_N, SEMIGROUP_SEEDS[0])
        h1 = mollified_histogram(uniform, float(np.sqrt(0.5)), grid, HIST_N, SEMIGROUP_SEEDS[1])
        l1 = l1_distance(h1, h2)
        assert l1 <= pin["budget"]
        assert l1 == pytest.approx(pin["l1"], rel=1e-6, abs=1e-12)

    def test_2d_histogram_shape_and_mass(self):
        spec = cm.Product(
            factors=(cm.UniformBox(lo=[-1.0], hi=[1.0]), cm.UniformBox(lo=[-1.0], hi=[1.0]))
        )
        grid = cm.Grid(axes=((-4.0, 4.0, 64), (-4.0, 4.0, 64)))
        hist = mollified_histogram(spec, 0.5, grid, 100_000, 9)
        assert hist.values.shape == (64 * 64,)
        assert hist.riemann_sum == pytest.approx(1.0, abs=1e-3)

    def test_validation(self, std_gaussian):
        grid = cm.Grid(axes=((-8.0, 8.0, 64),))
        with pytest.raises(ValidationError):
            mollified_histogram(std_gaussian, 0.0, grid, 100, 0)


class TestBatchExport:
    def test_csv_round_trip(self, tmp_path, std_gaussian):
        batch = sample(std_gaussian, 100, 13)
        csv_path = tmp_path / "batch.csv"
        sidecar = cm.write_batch_csv(batch, csv_path)
        meta = json.loads(sidecar.read_text())
        assert meta["seed"] == 13 and meta["n"] == 100
        assert cm.spec_from_dict(meta["spec"]).dim == 1
        rows = np.loadtxt(csv_path, delimiter=",", skiprows=1)
        assert np.allclose(rows, batch.points[:, 0], rtol=0, atol=0)

    def test_csv_matches_row_formatter(self, tmp_path):
        batch = sample(cm.Gaussian(mean=[0.0, 1.0], cov=[[1.0, 0.3], [0.3, 2.0]]), 200, 5)
        awkward = np.array([[0.0, 5e-324], [0.1, 1.0 / 3.0], [-0.0, -2.0 / 3.0]])
        points = np.concatenate([batch.points, awkward])
        batch = dataclasses.replace(batch, points=points)
        csv_path = tmp_path / "batch.csv"
        cm.write_batch_csv(batch, csv_path)
        lines = ["x1,x2"] + [",".join(format(c, ".17g") for c in row) for row in points]
        assert csv_path.read_text() == "\n".join(lines) + "\n"
