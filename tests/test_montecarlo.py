import dataclasses
import hashlib
import itertools
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


class TestSumLaw:
    """A standardized sum over an ``Empirical`` base draws from the exact
    finite law of the sum while it is under ``_SUM_LAW_CAP`` atoms."""

    def test_rademacher_16_is_binomial(self, rademacher):
        law = cm.StandardizedIIDSum(base=rademacher, n=16).sum_law()
        c = np.arange(17)
        assert np.array_equal(law.points[:, 0], (2.0 * c - 16.0) / 4.0)
        want = np.array([math.comb(16, int(j)) for j in c]) / 2.0**16
        assert np.max(np.abs(law.weights / want - 1.0)) <= 1e-15

    def test_equal_sums_merge_into_ascending_atoms(self):
        # X = (R_1 + R_2) / 2 on {-1, 0, 1}, so a sum of 4 is a sum of 8
        # signs over 2: 15 count vectors, 9 distinct values
        base = cm.Empirical(points=[[1.0], [0.0], [-1.0]], weights=[0.25, 0.5, 0.25])
        law = cm.StandardizedIIDSum(base=base, n=4).sum_law()
        c = np.arange(9)
        assert np.array_equal(law.points[:, 0], (c - 4.0) / 2.0)
        want = np.array([math.comb(8, int(j)) for j in c]) / 2.0**8
        assert np.max(np.abs(law.weights / want - 1.0)) <= 1e-14

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_brute_force_convolution(self, n):
        # every one of the k^n ordered sequences, the zero-weight atom
        # included, folded onto its multiset of atoms; no two multisets of
        # these atoms (n <= 6) have the same sum
        x = [-1.1, 0.6, 0.35, 1.7]
        w = [0.3, 0.0, 0.45, 0.25]
        folded = {}
        for seq in itertools.product(range(len(x)), repeat=n):
            key = tuple(sorted(seq))
            folded.setdefault(key, []).append(math.prod(w[i] for i in seq))
        rows = sorted(
            (math.fsum(x[i] for i in key) / math.sqrt(n), math.fsum(probs))
            for key, probs in folded.items()
            if math.fsum(probs) > 0.0
        )
        want_x, want_w = np.array(rows).T
        base = cm.Empirical(points=np.array(x)[:, None], weights=w)
        law = cm.StandardizedIIDSum(base=base, n=n).sum_law()
        assert len(law.weights) == len(rows) == math.comb(n + 2, 2)
        assert np.max(np.abs(law.points[:, 0] - want_x)) <= 1e-14
        assert np.max(np.abs(law.weights / want_w - 1.0)) <= 1e-14

    def test_draws_are_the_law_on_the_parent_stream(self, rademacher):
        # one uniform per draw, through Generator.choice's inverse CDF
        spec = cm.StandardizedIIDSum(base=rademacher, n=16)
        law = spec.sum_law()
        seq = np.random.SeedSequence(5)
        idx = sp.philox(seq).choice(len(law.weights), size=4096, p=law.weights)
        assert np.array_equal(spec.draw(4096, seq), law.points[idx])

    @pytest.mark.parametrize("n_terms", [16, 64])
    def test_short_batch_is_a_prefix(self, rademacher, n_terms):
        spec = cm.StandardizedIIDSum(base=rademacher, n=n_terms)
        for seed in (0, 7):
            short, long = sample(spec, 10, seed), sample(spec, 1000, seed)
            assert np.array_equal(short.points, long.points[:10])

    def test_over_cap_and_non_empirical_bases_keep_the_n_pass_sum(self):
        # 40 atoms and 16 terms make C(55, 16) count vectors, over the cap;
        # such a sum, and one over a uniform base, still adds 16 base draws
        # from 16 child streams, byte for byte
        rng = np.random.default_rng(40)
        w = rng.random(40)
        wide = cm.Empirical(points=rng.normal(size=(40, 1)), weights=w / w.sum())
        assert math.comb(55, 16) > sp._SUM_LAW_CAP
        for base in (wide, cm.UniformBox(lo=[-math.sqrt(3.0)], hi=[math.sqrt(3.0)])):
            spec = cm.StandardizedIIDSum(base=base, n=16)
            assert spec.sum_law() is None
            acc = np.zeros((5000, 1))
            for child in np.random.SeedSequence(11).spawn(16):
                acc += base.draw(5000, child)
            want = acc / np.sqrt(16)
            assert sample(spec, 5000, 11).points.tobytes() == want.tobytes()

    def test_cap_counts_nonzero_atoms_only(self, rademacher):
        # 361 atoms in 2 terms make 65341 count vectors, under the cap, and
        # as many distinct sums; a 362nd atom of weight zero does not count
        x = np.random.default_rng(361).normal(size=(362, 1))
        w = np.r_[np.full(361, 1.0 / 361), 0.0]
        law = cm.StandardizedIIDSum(base=cm.Empirical(points=x, weights=w), n=2).sum_law()
        assert law is not None and len(law.weights) == math.comb(362, 2)
        one = cm.StandardizedIIDSum(base=rademacher, n=1).sum_law()
        assert np.array_equal(one.points, rademacher.points)
        assert np.array_equal(one.weights, rademacher.weights)

    def test_histogram_of_draws_is_binomial(self, rademacher):
        n = 1_000_000
        batch = sample(cm.StandardizedIIDSum(base=rademacher, n=16), n, 2024)
        values, counts = np.unique(batch.points[:, 0], return_counts=True)
        c = np.rint(values * 2.0 + 8.0).astype(int)
        assert np.array_equal(values, (2.0 * c - 16.0) / 4.0)
        p = np.array([math.comb(16, int(j)) for j in c]) / 2.0**16
        assert np.all(np.abs(counts / n - p) <= 5.0 * np.sqrt(p * (1.0 - p) / n))
        assert counts.sum() == n and len(values) >= 15


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

    def test_uniform_probe_axis_matches_the_exact_sum_over_draws(self, rademacher):
        # a uniform probe axis takes the phase recurrence, on 1e5 distinct
        # draws and on the collapsed counts of a Rademacher-16 sum alike
        probes = np.linspace(-5.0, 5.0, 33)
        assert sp._recurrence_axis(probes[:, None]) is not None
        for spec in [cm.UniformBox(lo=[-1.0], hi=[2.0]), cm.StandardizedIIDSum(rademacher, 16)]:
            batch = sample(spec, 100_000, 23)
            x = batch.points[:, 0]
            exact = np.array([
                complex(math.fsum(np.cos(a).tolist()), math.fsum(np.sin(a).tolist())) / batch.n
                for a in np.outer(probes, x)
            ])
            got = empirical_cf(batch, probes)
            assert np.max(np.abs(got - exact)) <= 1e-14
            assert got[16] == 1.0 + 0.0j

    def test_memory_does_not_grow_with_draws(self):
        # 1e6 draws x 129 probes: the (probes x draws) phase matrix would
        # take about 2 GB; in chunks the peak is the unit weights and the
        # chunk temporaries of the phase recurrence
        batch = sample(cm.Gaussian(mean=[0.0], cov=[[1.0]]), 1_000_000, 8)
        probes = np.linspace(-5.0, 5.0, 129)
        assert sp._recurrence_axis(probes[:, None]) is not None
        peak = traced_peak_mb(lambda: empirical_cf(batch, probes))
        assert peak < 32.0

    def test_memory_does_not_grow_with_draws_off_a_uniform_axis(self):
        # the same bound where cos and sin of every phase are taken; the
        # chunks hold a fixed number of elements whatever the probe count
        batch = sample(cm.Gaussian(mean=[0.0], cov=[[1.0]]), 1_000_000, 8)
        probes = np.sort(np.random.default_rng(9).uniform(-5.0, 5.0, 33))
        assert sp._recurrence_axis(probes[:, None]) is None
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
        # Generator.choice and histogramdd the peak was 23.9 MiB.  Drawing
        # from the 17-atom law of the sum, one uniform per draw, peaks at
        # 15.9, mostly the draws and the noise added to them.  np.histogram
        # counts after the noise is freed and sorts 2^16 draws at a time,
        # about 1 MiB more than the draws.
        spec = cm.StandardizedIIDSum(base=rademacher, n=16)
        grid = cm.Grid(axes=((-8.0, 8.0, 512),))
        peak = traced_peak_mb(lambda: mollified_histogram(spec, 0.5, grid, 1_000_000, 3))
        assert peak < 20.0

    def test_gaussian_draws_peak_at_two_arrays(self, std_gaussian):
        # 1e6 1-d normal draws: with z, z @ A.T and mean + z @ A.T alive at
        # once the peak was 22.9 MiB; adding the mean in place after
        # freeing z peaks at 15.3, the draws and the noise.  The count runs
        # after the noise is freed and needs about 1 MiB more than the draws.
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
    def test_counts_equal_histogramdd(self, d):
        rng = np.random.default_rng(d)
        grid = cm.Grid(axes=tuple(self.AXES[:d]))
        edges = _edges(grid)
        cols = [_adversarial(e, rng, 70_000) for e in edges]
        n = max(len(c) for c in cols) + 3  # not a multiple of np.histogram's 2^16 block
        pts = np.stack([rng.choice(c, n) for c in cols], axis=1)
        if d == 1:
            pts[: len(cols[0]), 0] = cols[0]
        want = np.histogramdd(pts, bins=edges)[0].reshape(-1)
        got = mc._bin_counts(pts, grid)
        assert got.dtype.kind == "i" and np.array_equal(got, want)

    @pytest.mark.parametrize("axes", [
        ((1e10, 1e10 + 1e-4, 64),),
        ((1e10, 1e10 + 1e-4, 64), (-1.3, 2.9, 7)),
    ], ids=["1d", "2d"])
    def test_fine_axis_far_from_zero(self, axes):
        # the spacing is near the rounding step of the edges, so the edges
        # are far from e[0] + i h; the counts still follow the stored edges
        grid = cm.Grid(axes=axes)
        edges = _edges(grid)
        rng = np.random.default_rng(5)
        cols = [_adversarial(e, rng, 10_000) for e in edges]
        n = max(len(c) for c in cols)
        pts = np.stack([c if len(c) == n else rng.choice(c, n) for c in cols], axis=1)
        want = np.histogramdd(pts, bins=edges)[0].reshape(-1)
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
        # a seeded 2-d batch one chunk and 200 rows long, written the way
        # the row-by-row writer did
        n = cm.grids._CSV_CHUNK_ROWS + 200
        batch = sample(cm.Gaussian(mean=[0.0, 1.0], cov=[[1.0, 0.3], [0.3, 2.0]]), n, 5)
        awkward = np.array([[0.0, 5e-324], [0.1, 1.0 / 3.0], [-0.0, -2.0 / 3.0]])
        points = np.concatenate([batch.points, awkward])
        batch = dataclasses.replace(batch, points=points)
        csv_path = tmp_path / "batch.csv"
        cm.write_batch_csv(batch, csv_path)
        row = ",".join(["{:.17g}"] * 2)
        lines = ["x1,x2"] + [row.format(*r) for r in points.tolist()]
        assert csv_path.read_text() == "\n".join(lines) + "\n"


def test_sum_law_is_built_once_per_spec(monkeypatch):
    # 361 atoms in 2 terms: 65341 count vectors, built on the first draw
    # only; the draws keep their bytes
    calls = []
    build = sp._sum_law
    monkeypatch.setattr(sp, "_sum_law", lambda *a: calls.append(1) or build(*a))
    x = np.random.default_rng(361).normal(size=(361, 1))
    spec = cm.StandardizedIIDSum(base=cm.Empirical(points=x, weights=np.full(361, 1.0 / 361)), n=2)
    first = spec.draw(1000, np.random.SeedSequence(9))
    again = spec.draw(1000, np.random.SeedSequence(9))
    assert len(calls) == 1
    assert first.tobytes() == again.tobytes()
    digest = hashlib.sha256(first.tobytes()).hexdigest()
    assert digest == "b33e2cc10b2918cf70651721065a638d72b5bbec18f105e4ed11730c60cdb2de"
