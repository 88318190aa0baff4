import math
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest

import cfmoll as cm
from cfmoll import (
    MollificationParams,
    NumericFailure,
    ValidationError,
    cf_l1_bound,
    gaussian_mollify_cf,
    invert_density_at,
    invert_density_grid,
    make_cf,
    mollified_density_at,
    mollified_density_grid,
    truncation_radius,
)
from cfmoll.charfn import CharFn
from cfmoll.mollify import _apply_negativity_policy
from tests.conftest import gaussian_density, subprocess_env

INV_SQRT_2PI = 0.39894228040143268  # standard normal density at 0
INV_SQRT_4PI = 0.28209479177387814  # N(0,2) density at 0


def mp_truncation_radius_oracle(tail_tol):
    """Root-solve of 2 Phi(-R) / sqrt(2 pi) = tail_tol with mpmath's erfc,
    independent of the scipy-based implementation (d=1, sigma=1)."""
    phi = lambda x: 0.5 * mp.erfc(-x / mp.sqrt(2))
    f = lambda r: 2 * phi(-r) / mp.sqrt(2 * mp.pi) - mp.mpf(tail_tol)
    return float(mp.findroot(f, 4.0))


class TestTruncationRadius:
    def test_vacuous_bound_returns_sentinel(self):
        # tail_tol at least (2 pi sigma^2)^{-d/2} admits any R
        assert truncation_radius(1.0, 1.0, 1) == 1.0
        assert truncation_radius(5.0, 0.5, 2) == 1.0

    def test_matches_independent_root_solve(self):
        oracle = mp_truncation_radius_oracle(1e-6)
        assert oracle == pytest.approx(4.7075898329002721, abs=1e-12)  # frozen
        assert truncation_radius(1.0, 1e-6, 1) == pytest.approx(oracle, abs=1e-8)

    def test_monotone_in_sigma_and_tol(self):
        assert truncation_radius(2.0, 1e-6, 1) <= truncation_radius(1.0, 1e-6, 1)
        sigmas = [0.25, 0.5, 1.0, 2.0, 4.0, 16.0]
        radii = [truncation_radius(s, 1e-8, 2) for s in sigmas]
        assert all(b <= a for a, b in zip(radii, radii[1:]))
        tols = [1e-4, 1e-6, 1e-8, 1e-10]
        radii = [truncation_radius(1.0, t, 1) for t in tols]
        assert all(b >= a for a, b in zip(radii, radii[1:]))

    def test_bound_actually_holds(self):
        # the returned R must make the tail integral small enough
        for sigma, tol, d in [(1.0, 1e-6, 1), (0.5, 1e-8, 2), (2.0, 1e-4, 3)]:
            r = truncation_radius(sigma, tol, d)
            one_axis = float(mp.erfc(sigma * r / mp.sqrt(2)))
            tail = d * one_axis * (2 * math.pi * sigma**2) ** (-d / 2)
            assert tail <= tol * (1 + 1e-12)

    def test_validation(self):
        with pytest.raises(ValidationError):
            truncation_radius(0.0, 1e-6, 1)
        with pytest.raises(ValidationError):
            truncation_radius(1.0, 0.0, 1)


class TestMollifiedDensityAt:
    def test_point_mass_becomes_standard_normal(self):
        cf = make_cf(cm.PointMass(location=[0.0]))
        assert mollified_density_at(cf, 1.0, [0.0]) == pytest.approx(INV_SQRT_2PI, abs=1e-7)

    def test_gaussian_closed_form_at_zero(self, std_gaussian):
        # N(0,1) * N(0,1) = N(0,2); frozen 1/sqrt(4 pi)
        v = mollified_density_at(make_cf(std_gaussian), 1.0, [0.0])
        assert v == pytest.approx(INV_SQRT_4PI, abs=1e-7)

    def test_uniform_matches_erf_oracle(self):
        # frozen from mpmath: 0.5 (Phi(2) - Phi(-2)) = 0.47724986805182079
        oracle = float(0.5 * (mp.erf(mp.mpf(2) / mp.sqrt(2))))
        assert oracle == pytest.approx(0.47724986805182079, abs=1e-15)
        cf = make_cf(cm.UniformBox(lo=[-1.0], hi=[1.0]))
        assert mollified_density_at(cf, 0.5, [0.0]) == pytest.approx(oracle, abs=1e-7)

    def test_rejects_nonpositive_sigma(self, std_gaussian):
        with pytest.raises(ValidationError):
            mollified_density_at(make_cf(std_gaussian), 0.0, [0.0])

    def test_broken_charfn_trips_imaginary_guard(self):
        # deliberately non-Hermitian evaluator: phase flips with |t|
        broken = CharFn(
            d=1,
            batch_eval=lambda pts: np.exp(1j * np.abs(pts[:, 0]) - 0.1 * np.abs(pts[:, 0])),
            integrable="yes",
        )
        with pytest.raises(NumericFailure):
            mollified_density_at(broken, 0.5, [2.0])


class TestMollifiedDensityGrid:
    def test_point_mass_grid_matches_normal(self):
        grid = cm.Grid(axes=((-8.0, 8.0, 1024),))
        field = mollified_density_grid(make_cf(cm.PointMass(location=[0.0])), 1.0, grid)
        exact = gaussian_density(grid.axis_points(0))
        assert np.max(np.abs(field.values - exact)) <= 1e-6
        assert field.normalized

    def test_riemann_sum_window(self, spec_zoo):
        grid = cm.Grid(axes=((-10.0, 10.0, 512),))
        for spec in spec_zoo:
            if spec.dim != 1:
                continue
            field = mollified_density_grid(make_cf(spec), 0.5, grid)
            assert abs(field.riemann_sum - 1.0) <= 1e-3

    def test_agrees_with_pointwise_path(self, std_gaussian):
        grid = cm.Grid(axes=((-8.0, 8.0, 257),))
        cf = make_cf(std_gaussian)
        field = mollified_density_grid(cf, 0.7, grid)
        z = grid.axis_points(0)
        for i in range(0, 257, 16):
            pw = max(mollified_density_at(cf, 0.7, [z[i]]), 0.0)
            assert abs(field.values[i] - pw) <= 1e-10

    def test_agrees_with_pointwise_path_2d(self):
        spec = cm.Product(
            factors=(cm.UniformBox(lo=[-1.0], hi=[1.0]), cm.Laplace1D(scale=0.5))
        )
        cf = make_cf(spec)
        grid = cm.Grid(axes=((-4.0, 4.0, 33), (-4.0, 4.0, 33)))
        field = mollified_density_grid(cf, 0.6, grid)
        pts = grid.points()
        for i in range(0, grid.size, 97):
            pw = max(mollified_density_at(cf, 0.6, pts[i]), 0.0)
            assert abs(field.values[i] - pw) <= 1e-10

    def test_agrees_with_pointwise_path_3d(self):
        # correlated, off-centre 3-d Gaussian: pointwise calls run the lattice
        # path on one-point axes and must match the grid to the contract
        spec = cm.Gaussian(
            mean=[0.0, 0.3, -0.2],
            cov=[[1.0, 0.5, 0.2], [0.5, 1.0, -0.3], [0.2, -0.3, 0.8]],
        )
        cf = make_cf(spec)
        grid = cm.Grid(axes=((-6.0, 6.0, 9), (-5.5, 6.5, 10), (-6.0, 5.0, 11)))
        field = mollified_density_grid(cf, 1.0, grid)
        pts = grid.points()
        for i in (0, 404, 495, 517, grid.size - 1):
            pw = max(mollified_density_at(cf, 1.0, pts[i]), 0.0)
            assert abs(field.values[i] - pw) <= 1e-10

    def test_axis_swap_symmetry(self):
        spec = cm.Product(
            factors=(cm.UniformBox(lo=[-1.0], hi=[1.0]), cm.UniformBox(lo=[-1.0], hi=[1.0]))
        )
        grid = cm.Grid(axes=((-4.0, 4.0, 96), (-4.0, 4.0, 96)))
        field = mollified_density_grid(make_cf(spec), 0.5, grid)
        v = field.values.reshape(96, 96)
        assert np.max(np.abs(v - v.T)) <= 1e-12

    def test_too_small_window_is_numeric_failure(self, std_gaussian):
        grid = cm.Grid(axes=((-1.0, 1.0, 64),))
        with pytest.raises(NumericFailure, match="Riemann sum"):
            mollified_density_grid(make_cf(std_gaussian), 0.5, grid)

    def test_gaussian_closed_form_family(self, std_gaussian):
        # smoothing N(0,1) at scale sigma gives N(0, 1 + sigma^2)
        cf = make_cf(std_gaussian)
        grid = cm.Grid(axes=((-8.0, 8.0, 256),))
        params = MollificationParams(nodes_per_axis=256)
        for sigma in (0.5, 1.0):
            field = mollified_density_grid(cf, sigma, grid, params)
            exact = gaussian_density(grid.axis_points(0), var=1.0 + sigma * sigma)
            assert np.max(np.abs(field.values - exact)) <= 1e-6

    def test_workers_do_not_change_values(self, std_gaussian):
        grid = cm.Grid(axes=((-8.0, 8.0, 128),))
        cf = make_cf(std_gaussian)
        serial = mollified_density_grid(cf, 0.5, grid, workers=1)
        threaded = mollified_density_grid(cf, 0.5, grid, workers=4)
        assert np.array_equal(serial.values, threaded.values)

    def test_workers_deterministic_and_consistent_2d(self):
        # same worker count twice: bit-identical; different counts may
        # differ only by BLAS reassociation, far below the 1e-10 contract
        spec = cm.Gaussian(mean=[0.0, 0.5], cov=[[1.0, 0.6], [0.6, 1.0]])
        grid = cm.Grid(axes=((-5.0, 5.0, 64), (-5.0, 5.5, 64)))
        cf = make_cf(spec)
        serial = mollified_density_grid(cf, 0.5, grid, workers=1)
        threaded = mollified_density_grid(cf, 0.5, grid, workers=3)
        again = mollified_density_grid(cf, 0.5, grid, workers=3)
        assert np.array_equal(threaded.values, again.values)
        assert np.allclose(serial.values, threaded.values, rtol=0, atol=1e-13)
        assert abs(serial.riemann_sum - 1.0) <= 1e-3

    def test_d3_product_uniform_closed_form(self):
        from scipy.special import erf

        spec = cm.Product(factors=tuple(cm.UniformBox(lo=[-1.0], hi=[1.0]) for _ in range(3)))
        grid = cm.Grid(axes=((-4.0, 4.0, 32),) * 3)
        params = MollificationParams(truncation_radius=12.0, nodes_per_axis=64)
        field = mollified_density_grid(make_cf(spec), 0.5, grid, params)
        assert abs(field.riemann_sum - 1.0) <= 1e-3

        def moll_uniform_1d(z, s=0.5):
            return 0.25 * (erf((1 - z) / (np.sqrt(2) * s)) + erf((1 + z) / (np.sqrt(2) * s)))

        pts = grid.points()
        for i in (0, 12345, 20000):
            exact = np.prod([moll_uniform_1d(c) for c in pts[i]])
            assert abs(field.values[i] - exact) <= 1e-9

    def test_dimension_mismatch(self, std_gaussian):
        grid = cm.Grid(axes=((-4.0, 4.0, 32), (-4.0, 4.0, 32)))
        with pytest.raises(ValidationError):
            mollified_density_grid(make_cf(std_gaussian), 0.5, grid)


class TestInversion:
    def test_laplace_closed_form(self):
        cf = make_cf(cm.Laplace1D(scale=1.0))
        assert invert_density_at(cf, [0.0]) == pytest.approx(0.5, abs=1e-4)
        # frozen e^{-1}/2
        for z in (1.0, -1.0):
            assert invert_density_at(cf, [z]) == pytest.approx(
                0.18393972058572116, abs=1e-4
            )

    def test_gaussian_closed_form(self, std_gaussian):
        assert invert_density_at(make_cf(std_gaussian), [0.0]) == pytest.approx(
            INV_SQRT_2PI, abs=1e-8
        )

    def test_point_mass_rejected(self):
        with pytest.raises(ValidationError, match="atoms"):
            invert_density_at(make_cf(cm.PointMass(location=[0.0])), [0.0])

    def test_unknown_flag_needs_override(self):
        spec = cm.StandardizedIIDSum(base=cm.UniformBox(lo=[-1.732], hi=[1.732]), n=2)
        cf = make_cf(spec)
        assert cf.integrable == "unknown"
        with pytest.raises(ValidationError, match="unknown"):
            invert_density_at(cf, [0.0])
        # (U1 + U2)/sqrt(2) for U ~ Uniform[-a, a]: triangular density,
        # peak 1/(a sqrt(2)) at 0
        val = invert_density_at(cf, [0.0], allow_unknown_integrability=True)
        assert val == pytest.approx(1.0 / (1.732 * math.sqrt(2.0)), abs=1e-3)

    def test_never_exceeds_l1_certificate(self, std_gaussian):
        for spec in (cm.Laplace1D(scale=1.0), std_gaussian):
            cf = make_cf(spec)
            bound = cf_l1_bound(cf)
            # z = 0 maximizes a nonnegative-CF inversion: equality case
            assert invert_density_at(cf, [0.0]) <= bound + 1e-6

    def test_grid_inversion_matches_pointwise(self, std_gaussian):
        cf = make_cf(std_gaussian)
        grid = cm.Grid(axes=((-5.0, 5.0, 101),))
        field = invert_density_grid(cf, grid)
        z = grid.axis_points(0)
        for i in range(0, 101, 10):
            assert abs(field.values[i] - max(invert_density_at(cf, [z[i]]), 0.0)) <= 1e-10

    def test_grid_inversion_partial_window_not_normalized(self):
        # [-6, 6] misses e^-6 of Laplace mass: field must not claim normalization
        cf = make_cf(cm.Laplace1D(scale=1.0))
        field = invert_density_grid(cf, cm.Grid(axes=((-6.0, 6.0, 301),)))
        assert not field.normalized
        exact = np.exp(-np.abs(field.grid.axis_points(0))) / 2.0
        assert np.max(np.abs(field.values - exact)) <= 1e-4

    def test_no_decay_rejected(self):
        # |chi| == 1 everywhere: flag lies, scan must refuse
        liar = CharFn(
            d=1,
            batch_eval=lambda pts: np.exp(1j * pts[:, 0]),
            integrable="yes",
        )
        with pytest.raises(ValidationError, match="decay"):
            invert_density_at(liar, [0.0])


class TestCfL1Bound:
    def test_laplace_value(self):
        # (2 pi)^{-1} * integral 1/(1+t^2) = (2 pi)^{-1} * pi = 0.5
        assert cf_l1_bound(make_cf(cm.Laplace1D(scale=1.0))) == pytest.approx(0.5, abs=1e-4)

    def test_gaussian_value(self, std_gaussian):
        assert cf_l1_bound(make_cf(std_gaussian)) == pytest.approx(INV_SQRT_2PI, abs=1e-6)

    def test_mollified_point_mass_same_integrand(self):
        cf = gaussian_mollify_cf(make_cf(cm.PointMass(location=[0.0])), 1.0)
        assert cf_l1_bound(cf) == pytest.approx(INV_SQRT_2PI, abs=1e-6)

    def test_preconditions(self):
        with pytest.raises(ValidationError):
            cf_l1_bound(make_cf(cm.PointMass(location=[0.0])))


class TestConsistencyOfFormulas:
    def test_mollified_equals_inversion_of_mollified_cf(self, spec_zoo):
        params = MollificationParams(tail_tol=1e-12)
        rng = np.random.default_rng(17)
        for spec in spec_zoo:
            if spec.dim != 1:
                continue
            cf = make_cf(spec)
            sigma = float(rng.uniform(0.4, 1.2))
            z = float(rng.uniform(-2.0, 2.0))
            a = mollified_density_at(cf, sigma, [z], params)
            b = invert_density_at(gaussian_mollify_cf(cf, sigma), [z], params)
            assert abs(a - b) <= 1e-9


class TestParamsAndPolicies:
    def test_params_validation(self):
        with pytest.raises(ValidationError):
            MollificationParams(nodes_per_axis=15)
        with pytest.raises(ValidationError):
            MollificationParams(nodes_per_axis=33)  # odd
        with pytest.raises(ValidationError):
            MollificationParams(truncation_radius=-1.0)
        with pytest.raises(ValidationError):
            MollificationParams(tail_tol=0.0)
        with pytest.raises(ValidationError):
            MollificationParams(sigma=-0.5)

    def test_for_dimension_defaults(self):
        assert MollificationParams.for_dimension(1).nodes_per_axis == 512
        assert MollificationParams.for_dimension(2).nodes_per_axis == 512
        assert MollificationParams.for_dimension(3).nodes_per_axis == 64

    def test_dimension_cap(self):
        spec = cm.Product(factors=tuple(cm.Laplace1D(scale=1.0) for _ in range(4)))
        cf = make_cf(spec)
        with pytest.raises(ValidationError, match="cap"):
            mollified_density_at(cf, 1.0, [0.0, 0.0, 0.0, 0.0])

    def test_negativity_policy(self):
        vals = np.array([0.5, -1e-8, 1e-3])
        out = _apply_negativity_policy(vals, 1e-6)
        assert np.array_equal(out, [0.5, 0.0, 1e-3])
        with pytest.raises(NumericFailure):
            _apply_negativity_policy(np.array([0.5, -1e-3]), 1e-6)

    def test_node_budget_guard(self):
        spec = cm.Product(factors=(cm.Laplace1D(scale=1.0), cm.Laplace1D(scale=1.0)))
        cf = gaussian_mollify_cf(make_cf(spec), 1.0)
        # force an absurd manual configuration: budget must trip before
        # the lattice is materialized
        object.__setattr__(cf, "integrable", "yes")
        laplace2 = make_cf(spec)
        with pytest.raises(NumericFailure, match="budget"):
            invert_density_at(laplace2, [0.0, 0.0], allow_unknown_integrability=True)

    def test_explicit_radius_disables_autoscaling(self, std_gaussian):
        cf = make_cf(std_gaussian)
        params = MollificationParams(truncation_radius=8.0, nodes_per_axis=256)
        v = mollified_density_at(cf, 1.0, [0.0], params)
        assert v == pytest.approx(INV_SQRT_4PI, abs=1e-6)


class TestContractAxis:
    def test_factored_long_axis_matches_direct(self):
        # above _FACTOR_THRESHOLD the contraction splits k = q*K + s; the
        # regrouped sum must agree with the plain phase matrix
        from cfmoll.mollify import _contract_axis

        rng = np.random.default_rng(0)
        m = 20000
        y = np.linspace(-30.0, 30.0, m)
        z = rng.uniform(-3, 3, 40)
        for shape in ((m,), (m, 7)):
            t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            direct = np.tensordot(t, np.exp(-1j * np.outer(z, y)), axes=([0], [1]))
            fact = _contract_axis(t, y, z)
            assert fact.shape == direct.shape
            scale = np.max(np.abs(direct))
            assert np.max(np.abs(fact - direct)) <= 1e-9 * scale

    @pytest.mark.parametrize("m", [16, 652])
    @pytest.mark.parametrize("n_z", [2, 3, 513, 2049])
    @pytest.mark.parametrize("window", [(-8.0, 8.0), (-9.5, 10.5), (3.0, 40.0)])
    def test_chirp_matches_phase_matrix(self, m, n_z, window):
        # a vector onto a longer z axis takes the chirp-z form; it must agree
        # with the explicit phase matrix, also on off-centre windows
        from cfmoll.mollify import _contract_axis, _takes_chirp

        rng = np.random.default_rng(m + n_z)
        y = np.linspace(-17.3, 17.3, m)
        z = np.linspace(*window, n_z)
        t = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        assert _takes_chirp(t, n_z)
        direct = np.tensordot(t, np.exp(-1j * np.outer(z, y)), axes=([0], [1]))
        chirp = _contract_axis(t, y, z)
        assert chirp.shape == direct.shape
        assert np.max(np.abs(chirp - direct)) <= 1e-12 * np.max(np.abs(direct))

    @pytest.mark.parametrize("batch, n_z", [(7, 3), (21, 64)])
    def test_batched_axis_takes_direct_path(self, batch, n_z):
        # batched axes of 2-d/3-d lattices run the blocked phase matrix,
        # also when the z axis outnumbers the batch (a 2-d grid whose first
        # axis a worker split into 21-point chunks)
        from cfmoll.mollify import _contract_axis, _takes_chirp

        rng = np.random.default_rng(1)
        m = 652
        y = np.linspace(-17.3, 17.3, m)
        z = np.linspace(-9.5, 10.5, n_z)
        t = rng.standard_normal((m, batch)) + 1j * rng.standard_normal((m, batch))
        assert not _takes_chirp(t, n_z)
        direct = np.tensordot(t, np.exp(-1j * np.outer(z, y)), axes=([0], [1]))
        out = _contract_axis(t, y, z)
        assert out.shape == (batch, n_z)
        assert np.max(np.abs(out - direct)) <= 1e-12 * np.max(np.abs(direct))


def test_import_does_not_load_scipy_signal():
    # scipy.signal costs about a second and 50 MB at import; the chirp-z
    # contraction is built on numpy.fft so that `import cfmoll` avoids it
    code = "import sys, cfmoll; print('scipy.signal' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=subprocess_env()
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
