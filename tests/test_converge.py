import numpy as np
import pytest

import cfmoll as cm
from cfmoll import (
    ConvergenceReport,
    MollificationParams,
    ValidationError,
    cf_sup_error,
    convergence_certificate,
    gaussian_tail_prob,
    invert_density_grid,
    l1_distance,
    make_cf,
    mass_in_box,
    mollified_density_grid,
    tv_distance,
)
from tests.conftest import gaussian_density

# frozen mpmath oracles
L1_GAUSS_SHIFT = 0.079755223353489846  # L1 between N(0,1) and N(0.1,1)
TAIL_D1_AT_196 = 0.050000465755261889  # P(|Z| > 1.95996), d=1
TAIL_D2_AT_196 = 0.09750088493478066
TAIL_AT_4 = 6.3342483666239843e-05  # P(|Z| > 4), d=1
SCHEFFE_L1_AT_100 = 4.8391725347804596e-05  # L1(N(0,1+1e-4), N(0,1))
CLT_L1_ORACLE = {4: 0.0490869598522, 16: 0.00956575667281, 64: 0.00234792630229}


def closed_form_field(grid, var=1.0, mean=0.0):
    return cm.DensityField(
        grid, gaussian_density(grid.axis_points(0), mean=mean, var=var), True
    )


class TestDistances:
    def test_identity_is_zero(self):
        grid = cm.Grid(axes=((-10.0, 10.0, 2048),))
        f = closed_form_field(grid)
        assert l1_distance(f, f) == 0.0
        assert tv_distance(f, f) == 0.0

    def test_disjoint_supports(self):
        grid = cm.Grid(axes=((0.0, 3.0, 4),))  # spacing 1
        a = cm.DensityField(grid, np.array([1.0, 0.0, 0.0, 0.0]), True)
        b = cm.DensityField(grid, np.array([0.0, 0.0, 1.0, 0.0]), True)
        assert l1_distance(a, b) == 2.0
        assert tv_distance(a, b) == 1.0

    def test_gaussian_shift_matches_erf_oracle(self):
        grid = cm.Grid(axes=((-10.0, 10.0, 2048),))
        a = closed_form_field(grid)
        b = closed_form_field(grid, mean=0.1)
        assert l1_distance(a, b) == pytest.approx(L1_GAUSS_SHIFT, abs=1e-6)
        assert tv_distance(a, b) == pytest.approx(0.5 * L1_GAUSS_SHIFT, abs=1e-6)

    def test_metric_properties_randomized(self):
        rng = np.random.default_rng(101)
        grid = cm.Grid(axes=((-1.0, 1.0, 33),))
        fields = []
        for _ in range(6):
            raw = rng.uniform(0.0, 1.0, grid.size)
            fields.append(cm.DensityField(grid, raw / (raw.sum() * grid.cell_volume), True))
        for a, b, c in zip(fields, fields[1:], fields[2:]):
            assert l1_distance(a, b) == l1_distance(b, a)
            assert l1_distance(a, c) <= l1_distance(a, b) + l1_distance(b, c) + 1e-12
            assert tv_distance(a, b) == 0.5 * l1_distance(a, b)

    def test_grid_mismatch_rejected(self):
        a = closed_form_field(cm.Grid(axes=((-10.0, 10.0, 2048),)))
        b = closed_form_field(cm.Grid(axes=((-10.0, 10.0, 1024),)))
        with pytest.raises(ValidationError):
            l1_distance(a, b)

    def test_scheffe_gaussian_sequence(self):
        # smoothing N(0,1) at scale 1/n gives exactly N(0, 1 + 1/n^2)
        grid = cm.Grid(axes=((-10.0, 10.0, 2048),))
        params = MollificationParams(tail_tol=1e-10)
        cf = make_cf(cm.Gaussian(mean=[0.0], cov=[[1.0]]))
        target = invert_density_grid(cf, grid, params)
        dists = []
        for n in (1, 2, 5, 10, 30, 100):
            field = mollified_density_grid(cf, 1.0 / n, grid, params)
            dists.append(l1_distance(field, target))
        assert all(b <= a for a, b in zip(dists, dists[1:]))
        assert dists[-1] < 1e-3
        assert dists[-1] <= SCHEFFE_L1_AT_100 + 1e-6


class TestCfSupError:
    def test_self_is_zero(self, std_gaussian):
        cf = make_cf(std_gaussian)
        assert cf_sup_error(cf, cf) == 0.0

    def test_clt_error_shrinks(self, rademacher, std_gaussian):
        target = make_cf(std_gaussian)
        probes = np.linspace(-3.0, 3.0, 61)
        err4 = cf_sup_error(make_cf(cm.StandardizedIIDSum(base=rademacher, n=4)), target, probes)
        err100 = cf_sup_error(
            make_cf(cm.StandardizedIIDSum(base=rademacher, n=100)), target, probes
        )
        # direct evaluation oracle: (cos(t/sqrt(n)))^n vs e^{-t^2/2}
        t = probes
        oracle4 = np.max(np.abs(np.cos(t / 2.0) ** 4 - np.exp(-t * t / 2)))
        assert err4 == pytest.approx(oracle4, abs=1e-12)
        assert err100 < err4

    def test_point_mass_pair_at_pi(self):
        a = make_cf(cm.PointMass(location=[0.0]))
        b = make_cf(cm.PointMass(location=[1.0]))
        assert cf_sup_error(a, b, [[np.pi]]) == pytest.approx(2.0, abs=1e-12)

    def test_validation(self, std_gaussian):
        cf = make_cf(std_gaussian)
        with pytest.raises(ValidationError):
            cf_sup_error(cf, make_cf(cm.PointMass(location=[0.0, 0.0])))
        with pytest.raises(ValidationError):
            cf_sup_error(cf, cf, np.zeros((0, 1)))


class TestGaussianTailProb:
    def test_frozen_quantile_values(self):
        assert gaussian_tail_prob(1, 1.95996, 1) == pytest.approx(TAIL_D1_AT_196, abs=1e-12)
        assert gaussian_tail_prob(1, 1.95996, 2) == pytest.approx(TAIL_D2_AT_196, abs=1e-12)
        assert gaussian_tail_prob(1, 4.0, 1) == pytest.approx(TAIL_AT_4, rel=1e-10)

    def test_tiny_epsilon_limit(self):
        assert gaussian_tail_prob(1, 1e-12, 3) == pytest.approx(1.0, abs=1e-6)

    def test_strictly_decreasing_in_k_and_epsilon(self):
        vals = [gaussian_tail_prob(k, 0.25, 2) for k in range(1, 12)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        vals = [gaussian_tail_prob(3, eps, 2) for eps in (0.1, 0.2, 0.4, 0.8)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_increasing_in_dimension_at_fixed_product(self):
        vals = [gaussian_tail_prob(2, 0.7, d) for d in (1, 2, 3, 6)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ValidationError):
            gaussian_tail_prob(0, 0.5, 1)
        with pytest.raises(ValidationError):
            gaussian_tail_prob(1, 0.0, 1)


class TestMassInBox:
    @pytest.fixture
    def normal_field(self):
        grid = cm.Grid(axes=((-8.0, 8.0, 513),))
        return mollified_density_grid(make_cf(cm.PointMass(location=[0.0])), 1.0, grid)

    def test_full_extent_equals_total(self, normal_field):
        assert mass_in_box(normal_field, 8.0) == normal_field.riemann_sum

    def test_quantile_value(self, normal_field):
        assert mass_in_box(normal_field, 1.96) == pytest.approx(0.95, abs=0.01)

    def test_wide_box_holds_nearly_all_mass(self, normal_field):
        assert mass_in_box(normal_field, 5.0) >= 1.0 - 1e-5

    def test_outside_extent_rejected(self, normal_field):
        with pytest.raises(ValidationError):
            mass_in_box(normal_field, 9.0)


def clt_mixture_l1_oracle(n, sigma=0.5, var_target=1.25):
    """Closed-form mixture of Gaussians for the smoothed standardized
    Bernoulli sum, integrated against the smoothed normal by trapezoid.
    Fully independent of the CF quadrature path."""
    from scipy.special import comb

    z = np.linspace(-12.0, 12.0, 48001)
    atoms = (2.0 * np.arange(n + 1) - n) / np.sqrt(n)
    weights = comb(n, np.arange(n + 1)) * 0.5**n
    gn = np.zeros_like(z)
    for w, a in zip(weights, atoms):
        gn += w * np.exp(-0.5 * (z - a) ** 2 / sigma**2)
    gn /= np.sqrt(2.0 * np.pi) * sigma
    gt = np.exp(-0.5 * z * z / var_target) / np.sqrt(2.0 * np.pi * var_target)
    return float(np.trapezoid(np.abs(gn - gt), z))


class TestCertificate:
    def test_identical_sequence_is_flat_zero(self, std_gaussian):
        target = make_cf(std_gaussian)
        grid = cm.Grid(axes=((-8.0, 8.0, 256),))
        rep = convergence_certificate([target, target], target, [1, 2], grid, 0.1)
        assert rep.cf_sup_error == (0.0, 0.0)
        assert all(v <= 1e-12 for row in rep.l1_mollified for v in row)
        assert rep.monotone_flags == (True, True)
        assert rep.final_l1 <= 1e-12

    def test_bernoulli_clt_decreasing_and_near_oracle(self, rademacher, std_gaussian):
        ns = [4, 16, 64]
        seq = [make_cf(cm.StandardizedIIDSum(base=rademacher, n=n)) for n in ns]
        target = make_cf(std_gaussian)
        grid = cm.Grid(axes=((-8.0, 8.0, 512),))
        rep = convergence_certificate(seq, target, [2], grid, 0.1, seq_labels=ns)
        col = [row[0] for row in rep.l1_mollified]
        assert col[0] > col[1] > col[2]
        for n, got in zip(ns, col):
            oracle = clt_mixture_l1_oracle(n)
            assert oracle == pytest.approx(CLT_L1_ORACLE[n], rel=1e-4)
            assert got == pytest.approx(oracle, rel=0.10)
        assert rep.monotone_flags == (True,)
        assert rep.sigma_schedule == (0.5,)
        assert all(v <= 2.0 + 1e-9 for row in rep.l1_mollified for v in row)

    def test_smoothing_remainder_column(self, std_gaussian):
        target = make_cf(std_gaussian)
        grid = cm.Grid(axes=((-8.0, 8.0, 128),))
        rep = convergence_certificate([target], target, [10, 20, 40], grid, 0.1)
        assert rep.smoothing_remainder == tuple(
            gaussian_tail_prob(k, 0.1, 1) for k in (10, 20, 40)
        )
        r = rep.smoothing_remainder
        assert r[0] > r[1] > r[2]
        assert r[2] < 1e-3  # P(|Z| > 4)

    def test_report_round_trip(self, tmp_path, std_gaussian):
        target = make_cf(std_gaussian)
        grid = cm.Grid(axes=((-8.0, 8.0, 128),))
        rep = convergence_certificate([target], target, [1, 3], grid, 0.2)
        path = tmp_path / "report.json"
        rep.write_json(path)
        again = ConvergenceReport.from_dict(__import__("json").loads(path.read_text()))
        assert again == rep
        rep.write_csv(tmp_path / "report.csv")
        rows = (tmp_path / "report.csv").read_text().strip().splitlines()
        assert rows[0] == "n,k,l1_mollified,smoothing_remainder"
        assert len(rows) == 1 + 1 * 2

    def test_schedule_validation(self, std_gaussian):
        target = make_cf(std_gaussian)
        grid = cm.Grid(axes=((-8.0, 8.0, 128),))
        with pytest.raises(ValidationError):
            convergence_certificate([target], target, [2, 2], grid, 0.1)
        with pytest.raises(ValidationError):
            convergence_certificate([target], target, [], grid, 0.1)
        with pytest.raises(ValidationError):
            convergence_certificate([], target, [1], grid, 0.1)
        with pytest.raises(ValidationError):
            convergence_certificate([target], target, [1], grid, -0.1)
        with pytest.raises(ValidationError):
            convergence_certificate(
                [make_cf(cm.PointMass(location=[0.0, 0.0]))], target, [1], grid, 0.1
            )
