import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import cfmoll as cm
import cfmoll.montecarlo as mc
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

    @pytest.mark.parametrize(
        "n, seed", [(2.7, 1), (10, 2.5), (10, -1), (-3, 1), (float("nan"), 1), (10, float("inf"))]
    )
    def test_non_integral_or_negative_n_and_seed_fail(self, std_gaussian, n, seed):
        with pytest.raises(ValidationError):
            sample(std_gaussian, n, seed)

    def test_integral_floats_and_numpy_integers_pass(self, std_gaussian):
        want = sample(std_gaussian, 10, 3)
        for n, seed in [(10.0, 3.0), (np.int64(10), np.uint32(3)), (np.float64(10.0), np.int8(3))]:
            got = sample(std_gaussian, n, seed)
            assert np.array_equal(got.points, want.points) and got.seed == 3


class TestSameStreamDraws:
    @pytest.mark.parametrize("k", [1, 2, 3, 8, 9, 50, sp.CUT_ATOMS, sp.CUT_ATOMS + 1, 200])
    def test_draws_equal_generator_choice(self, k):
        # choice(k, n, p) is the reference stream: the same uniforms through
        # the same inverse CDF, on both sides of the cut-count crossover
        rng = np.random.default_rng(k)
        points = rng.normal(size=(k, 2))
        for w in (rng.random(k), np.r_[0.0, rng.random(k - 1)], np.r_[rng.random(k - 1), 0.0]):
            w[rng.random(k) < 0.2] = 0.0  # scattered zero weights as well
            if w.sum() == 0:
                w[0] = 1.0
            spec = cm.Empirical(points=points, weights=w / w.sum())
            for n in (1, 1000, 20_001):
                seq = np.random.SeedSequence(k * 1000 + n)
                idx = sp.philox(seq).choice(k, size=n, p=spec.weights)
                assert np.array_equal(spec.draw(n, seq), points[idx])

    def test_zero_weight_atoms_never_drawn(self):
        spec = cm.Empirical(points=[[0.0], [1.0], [2.0], [3.0]], weights=[0.0, 0.5, 0.5, 0.0])
        assert set(np.unique(spec.draw(50_000, np.random.SeedSequence(1)))) == {1.0, 2.0}


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

    def test_collapsed_sum_matches_the_exact_sum_over_draws(self, rademacher):
        # repeated draws are merged into (value, count) pairs; the sum over
        # every draw, rounded once (fsum), is the reference
        for spec, n in [
            (cm.StandardizedIIDSum(base=rademacher, n=16), 5000),
            (cm.Empirical(points=[[-1.0, 0.5], [0.0, 0.0], [2.0, -1.0]], weights=[0.2, 0.5, 0.3]), 3000),
            (cm.Gaussian(mean=[0.0], cov=[[1.0]]), 3000),
        ]:
            batch = sample(spec, n, 21)
            probes = np.random.default_rng(4).uniform(-4.0, 4.0, size=(17, spec.dim))
            arg = batch.points @ probes.T
            exact = np.array([
                complex(math.fsum(np.cos(a)), math.fsum(np.sin(a))) / n for a in arg.T
            ])
            assert np.max(np.abs(np.ravel(empirical_cf(batch, probes)) - exact)) <= 1e-14
            assert empirical_cf(batch, np.zeros(spec.dim)) == 1.0 + 0.0j

    def test_collapse_merges_repeats(self, rademacher):
        batch = sample(cm.StandardizedIIDSum(base=rademacher, n=64), 100_000, 2)
        values, counts = mc._tally(batch.points)
        assert len(values) <= 65 and counts.sum() == batch.n
        assert np.array_equal(np.unique(batch.points[:, 0]), values[:, 0])
        corners = sample(cm.Product(factors=(rademacher, rademacher)), 1000, 3)
        values, counts = mc._tally(corners.points)
        assert sorted(map(tuple, values)) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
        assert counts.sum() == 1000
        distinct = sample(cm.Gaussian(mean=[0.0, 0.0], cov=np.eye(2)), 500, 3)
        values, counts = mc._tally(distinct.points)
        assert values is distinct.points and np.array_equal(counts, np.ones(500))

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

    @pytest.mark.parametrize(
        "radius, n, seed", [(float("nan"), 1000, 1), (1.0, 2.7, 1), (1.0, 100, 2.5), (1.0, 100, -1)]
    )
    def test_bad_inputs_fail(self, std_gaussian, radius, n, seed):
        with pytest.raises(ValidationError):
            mc_tail_prob(std_gaussian, radius, n, seed)

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
        for n, seed in [(10.9, 0), (100, 0.5), (100, -1), (-100, 0)]:
            with pytest.raises(ValidationError):
                mollified_histogram(std_gaussian, 1.0, grid, n, seed)

    def test_peak_memory_stays_under_the_histogramdd_version(self, rademacher):
        # 1e6 draws of a 16-term Rademacher sum on 512 bins: with
        # Generator.choice and histogramdd the peak was 23.9 MiB; the chunked
        # binning and an atom draw that frees its uniforms before the gather
        # peak at 17.2 (the running sum, the uint8 atom indices and the
        # gathered atoms).  Keeping the uniforms alive takes it to 23.8.
        spec = cm.StandardizedIIDSum(base=rademacher, n=16)
        grid = cm.Grid(axes=((-8.0, 8.0, 512),))
        peak = traced_peak_mb(lambda: mollified_histogram(spec, 0.5, grid, 1_000_000, 3))
        assert peak < 20.0

    def test_gaussian_draws_peak_at_two_arrays(self, std_gaussian):
        # 1e6 1-d normal draws: with z, z @ A.T and mean + z @ A.T alive at
        # once the peak was 22.9 MiB; adding the mean in place after
        # freeing z peaks at 15.3
        grid = cm.Grid(axes=((-8.0, 8.0, 512),))
        peak = traced_peak_mb(lambda: mollified_histogram(std_gaussian, 0.5, grid, 1_000_000, 3))
        assert peak < 18.0


def _edges(grid):
    out = []
    for j, h in enumerate(grid.spacings):
        axis = grid.axis_points(j)
        out.append(np.concatenate([axis - 0.5 * h, [axis[-1] + 0.5 * h]]))
    return out


def _adversarial(e, rng, n_random):
    """Every edge, its neighbours on both sides, points outside the window,
    NaN and infinities, and uniform points around the window."""
    span = e[-1] - e[0]
    return np.concatenate([
        e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf),
        [e[0] - span, e[-1] + span, -np.inf, np.inf, np.nan, e[-1], e[-1]],
        rng.uniform(e[0] - 0.1 * span, e[-1] + 0.1 * span, n_random),
    ])


class TestExactBinning:
    AXES = [(-8.0, 8.0, 512), (-1.3, 2.9, 7), (0.1, 0.7, 2)]

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("chunk", [7, 1 << 16])
    def test_counts_equal_histogramdd(self, monkeypatch, d, chunk):
        monkeypatch.setattr(mc, "HIST_CHUNK", chunk)
        rng = np.random.default_rng(d)
        grid = cm.Grid(axes=tuple(self.AXES[:d]))
        edges = _edges(grid)
        cols = [_adversarial(e, rng, 70_000) for e in edges]
        n = max(len(c) for c in cols) + 3  # not a multiple of either chunk
        pts = np.stack([rng.choice(c, n) for c in cols], axis=1)
        if d == 1:
            pts[: len(cols[0]), 0] = cols[0]
        want = np.histogramdd(pts, bins=edges)[0].reshape(-1)
        got = mc._bin_counts(pts, grid)
        assert got.dtype.kind == "i" and np.array_equal(got, want)

    def test_fine_axis_far_from_zero_falls_back_to_search(self):
        # the spacing is near the rounding step of the edges, so the
        # arithmetic guess is off by more than one bin; a search bins it
        grid = cm.Grid(axes=((1e10, 1e10 + 1e-4, 64),))
        e = _edges(grid)[0]
        pts = _adversarial(e, np.random.default_rng(5), 10_000)[:, None]
        want = np.histogramdd(pts, bins=[e])[0]
        assert np.array_equal(mc._bin_counts(pts, grid), want)

    def test_histogram_values_are_binned_draws(self):
        # end to end: the same draws through histogramdd give the same bytes
        spec = cm.Gaussian(mean=[0.0, 0.5], cov=[[1.0, 0.3], [0.3, 0.5]])
        grid = cm.Grid(axes=((-4.0, 4.0, 33), (-3.0, 3.5, 20)))
        n, seed, sigma = 100_003, 17, 0.4
        spec_seq, noise_seq = np.random.SeedSequence(seed).spawn(2)
        pts = spec.draw(n, spec_seq)
        pts = pts + sigma * sp.philox(noise_seq).standard_normal(pts.shape)
        counts = np.histogramdd(pts, bins=_edges(grid))[0].reshape(-1)
        hist = mollified_histogram(spec, sigma, grid, n, seed)
        assert hist.values.tobytes() == (counts / (n * grid.cell_volume)).tobytes()


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
