import dataclasses
import functools
import itertools
import math
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from scipy.special import erfcinv, erfcx, ndtr

import cfmoll as cm
import cfmoll.mollify as mo
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
from cfmoll.grids import NEGATIVITY_TOL
from tests.conftest import gaussian_density, subprocess_env, traced_peak_mb

INV_SQRT_2PI = 0.39894228040143268  # standard normal density at 0
INV_SQRT_4PI = 0.28209479177387814  # N(0,2) density at 0


def mp_truncation_radius_oracle(tail_tol):
    """Root-solve of 2 Phi(-R) / sqrt(2 pi) = tail_tol with mpmath's erfc,
    independent of the stdlib inverse normal CDF used by the implementation
    (d=1, sigma=1)."""
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

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("sigma", [0.05, 0.5, 1.0, 4.0])
    def test_matches_erfcinv_closed_form(self, sigma, d):
        # R = sqrt(2) / sigma * erfcinv(min(tail_tol / (d * whole), 1)), at least
        # 1, and the sentinel 1.0 once tail_tol reaches the whole integral; just
        # below it the argument nears 1 and the radius clamps to 1
        whole = (2 * math.pi * sigma**2) ** (-d / 2)
        tols = np.logspace(-300, math.log10(whole), 200).tolist()
        tols += [math.nextafter(whole, 0.0), whole, 2.0 * whole]
        for tol in tols:
            arg = min(tol / (d * whole), 1.0)
            closed = 1.0 if tol >= whole else max(math.sqrt(2) / sigma * float(erfcinv(arg)), 1.0)
            assert truncation_radius(sigma, tol, d) == pytest.approx(closed, rel=1e-13, abs=0)

    @pytest.mark.parametrize("sigma, tol", [(0.5, 5e-324), (0.5, 1e-310), (1e-320, 1e-6)])
    def test_underflowing_tail_is_a_validation_error(self, sigma, tol):
        with pytest.raises(ValidationError, match="tail_tol"):
            truncation_radius(sigma, tol, 1)

    def test_underflowing_tail_fails_the_density_call(self):
        cf = make_cf(cm.PointMass(location=[0.0]))
        with pytest.raises(ValidationError, match="tail_tol"):
            mollified_density_at(cf, 0.5, [0.0], MollificationParams(tail_tol=5e-324))

    def test_validation(self):
        with pytest.raises(ValidationError):
            truncation_radius(0.0, 1e-6, 1)
        with pytest.raises(ValidationError):
            truncation_radius(1.0, 0.0, 1)
        # a fractional dimension is not cut to 2
        with pytest.raises(ValidationError, match="integer"):
            truncation_radius(0.5, 1e-8, 2.9)
        r = truncation_radius(0.5, 1e-8, 2)
        assert truncation_radius(0.5, 1e-8, 2.0) == truncation_radius(0.5, 1e-8, np.int64(2)) == r


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
        with pytest.raises(ValidationError):
            mollified_density_at(make_cf(std_gaussian), True, [0.0])

    def test_broken_charfn_trips_imaginary_guard(self):
        # deliberately non-Hermitian evaluator: phase flips with |t|
        broken = CharFn(
            d=1,
            batch_eval=lambda pts: np.exp(1j * np.abs(pts[:, 0]) - 0.1 * np.abs(pts[:, 0])),
            integrable="yes",
        )
        with pytest.raises(NumericFailure, match="imaginary residue"):
            mollified_density_at(broken, 0.5, [2.0])
        # the same flip on a Gaussian modulus, through every density function
        for d in (1, 2):
            cf = CharFn(
                d,
                lambda pts: np.exp(1j * np.abs(pts[:, 0]) - 0.5 * np.einsum("ni,ni->n", pts, pts)),
                "yes",
            )
            grid = cm.Grid(axes=((-6.0, 6.0, 25),) * d)
            point = [2.0] * d
            for call in (
                lambda: mollified_density_at(cf, 0.5, point),
                lambda: mollified_density_grid(cf, 0.5, grid),
                lambda: invert_density_at(cf, point),
                lambda: invert_density_grid(cf, grid),
            ):
                with pytest.raises(NumericFailure, match="imaginary residue"):
                    call()
        # a real-valued evaluator that is not even, along the first axis or
        # along the last (the one a real slab contracts first): its slabs
        # take the real path, and the sine products still carry the
        # imaginary residue
        for d, axis in ((1, 0), (2, 0), (2, 1), (3, 0), (3, 2)):
            cf = CharFn(
                d,
                lambda pts, axis=axis: np.exp(-0.5 * np.einsum("ni,ni->n", pts, pts))
                * (1.0 + 0.3 * np.sin(pts[:, axis])),
                "yes",
            )
            assert cf.batch_eval(np.ones((2, d))).dtype == np.float64
            grid = cm.Grid(axes=((-6.0, 6.0, 9),) * d)
            point = [0.7] * d
            params = MollificationParams(truncation_radius=8.0, nodes_per_axis=48)
            for call in (
                lambda: mollified_density_at(cf, 1.0, point, params),
                lambda: mollified_density_grid(cf, 1.0, grid, params),
                lambda: invert_density_at(cf, point, params),
                lambda: invert_density_grid(cf, grid, params),
            ):
                with pytest.raises(NumericFailure, match="imaginary residue"):
                    call()

    def test_explicit_radius_ignores_tail_tol_in_the_residue_limit(self):
        # with an explicit radius the plan reads no tail_tol, so a large one
        # must not loosen the guard: this evaluator's residue is 0.07
        cf = CharFn(
            1, lambda pts: np.exp(-0.5 * pts[:, 0] ** 2) * (1 + 0.3j * np.cos(pts[:, 0])), "yes"
        )
        for tail_tol in (1e-8, 0.5):
            params = MollificationParams(
                truncation_radius=8.0, nodes_per_axis=128, tail_tol=tail_tol
            )
            with pytest.raises(NumericFailure, match="imaginary residue"):
                invert_density_at(cf, [0.3], params)


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

    def test_zoo_grids_agree_with_points(self, spec_zoo):
        # every constructor, 1-d and 2-d, on a grid and at points; the 2-d
        # Empirical law's lattice blocks take atom_sum's lattice-row branch
        for spec in spec_zoo:
            cf = make_cf(spec)
            grid = cm.Grid(axes=((-9.0, 9.0, 37),) * spec.dim)
            field = mollified_density_grid(cf, 0.5, grid)
            pts = grid.points()
            for i in range(0, grid.size, grid.size // 5):
                pw = max(mollified_density_at(cf, 0.5, pts[i]), 0.0)
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
        # the slab bounds depend on the lattice alone, so any worker count
        # gives the same bits
        spec = cm.Gaussian(mean=[0.0, 0.5], cov=[[1.0, 0.6], [0.6, 1.0]])
        grid = cm.Grid(axes=((-5.0, 5.0, 64), (-5.0, 5.5, 64)))
        cf = make_cf(spec)
        serial = mollified_density_grid(cf, 0.5, grid, workers=1)
        threaded = mollified_density_grid(cf, 0.5, grid, workers=3)
        again = mollified_density_grid(cf, 0.5, grid, workers=3)
        assert np.array_equal(threaded.values, again.values)
        assert np.array_equal(serial.values, threaded.values)
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

    @pytest.mark.parametrize(
        "spec, z, expected",
        [
            (cm.Product(factors=(cm.Gaussian(mean=[0.0], cov=[[1.0]]),) * 2), [0.3, -0.7],
             gaussian_density(0.3) * gaussian_density(-0.7)),
            (cm.StandardizedIIDSum(base=cm.Gaussian(mean=[0.0], cov=[[1.0]]), n=4), [0.0],
             INV_SQRT_2PI),
            (cm.AffineMap(matrix=[[2.0]], shift=[0.5], inner=cm.Gaussian(mean=[0.0], cov=[[1.0]])),
             [1.3], gaussian_density(1.3, mean=0.5, var=4.0)),
        ],
        ids=["product", "iid_sum", "affine_map"],
    )
    def test_derived_integrable_laws_invert_without_override(self, spec, z, expected):
        cf = make_cf(spec)
        assert cf.integrable == "yes"
        assert invert_density_at(cf, z) == pytest.approx(expected, abs=1e-6)

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


class TestPointwiseChecks:
    """Pointwise values pass the negativity policy and the L1 certificate
    of the grids, for both the smoothed and the inverted density."""

    @pytest.mark.parametrize("kind", ["mollified", "inverted"])
    def test_negative_value_raises_as_on_grid(self, kind):
        # 64 nodes on [-8, 8] are far too coarse for sigma = 0.05: the
        # transform of UniformBox [-1, 1] reads -0.0479 at z = -1.39
        cf = make_cf(cm.UniformBox(lo=[-1.0], hi=[1.0]))
        params = MollificationParams(truncation_radius=8.0, nodes_per_axis=64)
        grid = cm.Grid(axes=((-2.0, 2.0, 201),))
        if kind == "mollified":
            at = lambda: mollified_density_at(cf, 0.05, [-1.39], params)
            field = lambda: mollified_density_grid(cf, 0.05, grid, params)
        else:
            smoothed = gaussian_mollify_cf(cf, 0.05)
            at = lambda: invert_density_at(smoothed, [-1.39], params)
            field = lambda: invert_density_grid(smoothed, grid, params)
        for run in (at, field):
            with pytest.raises(NumericFailure, match="density value -0.04.* below -1e-06"):
                run()

    def test_non_finite_value_raises_as_on_grid(self):
        # an evaluator that returns NaN beyond |t| = 3: a pointwise value
        # came back as NaN while the grid failed to build its field
        def ev(pts):
            return np.where(np.abs(pts[:, 0]) > 3.0, np.nan, 1.0 / (1.0 + pts[:, 0] ** 2))

        broken = CharFn(d=1, batch_eval=ev, integrable="yes")
        params = MollificationParams(truncation_radius=8.0, nodes_per_axis=64)
        grid = cm.Grid(axes=((-4.0, 4.0, 9),))
        for run in (
            lambda: mollified_density_at(broken, 0.5, [0.0], params),
            lambda: mollified_density_grid(broken, 0.5, grid, params),
            lambda: invert_density_at(broken, [0.0], params),
            lambda: invert_density_grid(broken, grid, params),
        ):
            with pytest.raises(NumericFailure, match="not finite"):
                run()

    @pytest.mark.parametrize("kind", ["mollified", "inverted"])
    def test_ripple_is_clamped_as_on_grid(self, kind):
        # cutting the sigma = 0.5 damping at R = 10 leaves a truncation
        # ripple of -1.5e-8 at z = -4, inside the default tolerance
        cf = make_cf(cm.UniformBox(lo=[-1.0], hi=[1.0]))
        params = MollificationParams(truncation_radius=10.0, nodes_per_axis=128)
        grid = cm.Grid(axes=((-12.0, 12.0, 241),))
        node = 80
        z = grid.axis_points(0)[node]
        if kind == "mollified":
            sigma = 0.5
            at = mollified_density_at(cf, sigma, [z], params)
            field = mollified_density_grid(cf, sigma, grid, params)
        else:
            cf, sigma = gaussian_mollify_cf(cf, 0.5), 0.0
            at = invert_density_at(cf, [z], params)
            field = invert_density_grid(cf, grid, params)
        plan = mo._plan(cf, sigma, params)
        raw, _ = mo._scaled_transform(cf, plan, [np.array([z])])
        assert -NEGATIVITY_TOL <= raw.real.item() < -1e-9
        assert at == 0.0
        assert field.values[node] == 0.0


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
        for radius in (math.inf, math.nan):
            with pytest.raises(ValidationError, match="finite"):
                MollificationParams(truncation_radius=radius)
        # the negativity tolerance is part of the contract, not a setting
        with pytest.raises(TypeError):
            MollificationParams(negativity_tol=1e-6)

    def test_tail_tol_must_be_finite(self):
        with pytest.raises(ValidationError, match="finite"):
            MollificationParams(tail_tol=math.inf)

    @pytest.mark.parametrize(
        "call, tol",
        [
            # the decay scan compares tail_tol with |chi| <= 1
            (lambda cf, p: invert_density_at(cf, [0.0], p), 2.0),
            (lambda cf, p: invert_density_at(cf, [0.0], p), 1.0),
            (lambda cf, p: invert_density_grid(cf, cm.Grid(axes=((-6.0, 6.0, 65),)), p), 1.0),
            (lambda cf, p: cf_l1_bound(cf, p), 1.0),
            # (2 pi sigma^2)^(-1/2) = 0.797885 at sigma 0.5 in 1-d
            (lambda cf, p: mollified_density_at(cf, 0.5, [0.0], p), 0.8),
            (lambda cf, p: mollified_density_grid(cf, 0.5, cm.Grid(axes=((-6.0, 6.0, 65),)), p), 0.8),
        ],
        ids=["invert-2", "invert-1", "invert-grid", "l1-bound", "smooth", "smooth-grid"],
    )
    def test_vacuous_tail_tol_fails(self, std_gaussian, call, tol):
        # such a tolerance bounds nothing: the box shrank to radius 1 or 2
        # and N(0, 1) read 0.38079 at 0 instead of 0.39894
        with pytest.raises(ValidationError, match="tail_tol"):
            call(make_cf(std_gaussian), MollificationParams(tail_tol=tol))

    def test_tail_tol_just_below_the_whole_bound_runs(self, std_gaussian):
        cf = make_cf(std_gaussian)
        assert invert_density_at(cf, [0.0], MollificationParams(tail_tol=0.999)) > 0.0
        assert mollified_density_at(cf, 0.5, [0.0], MollificationParams(tail_tol=0.79)) > 0.0
        # in 2-d the damping integral is 1 / (2 pi sigma^2) = 0.6366 at sigma 0.5
        cf2 = make_cf(cm.Gaussian(mean=[0.0, 0.0], cov=np.eye(2)))
        with pytest.raises(ValidationError, match="tail_tol"):
            mollified_density_at(cf2, 0.5, [0.0, 0.0], MollificationParams(tail_tol=0.64))
        assert mollified_density_at(cf2, 0.5, [0.0, 0.0], MollificationParams(tail_tol=0.63)) > 0.0
        # an explicit radius takes no box from tail_tol
        explicit = MollificationParams(truncation_radius=8.0, nodes_per_axis=128, tail_tol=2.0)
        assert invert_density_at(cf, [0.0], explicit) == pytest.approx(INV_SQRT_2PI, abs=1e-12)

    def test_default_nodes_per_dimension(self):
        # one default: 512 up to d = 2, 64 from d = 3, for params=None and
        # for params that leave nodes_per_axis unset alike
        params = MollificationParams()
        assert [params.nodes(d) for d in (1, 2, 3, 5)] == [512, 512, 64, 64]
        assert MollificationParams(nodes_per_axis=128).nodes(3) == 128
        assert len(dataclasses.fields(MollificationParams)) == 3

    def test_3d_params_without_nodes_match_the_default(self):
        # MollificationParams(tail_tol=1e-8) took 512 nodes per axis in 3-d
        # and failed the node budget; it now takes the default, 64
        cf = _gauss_cf(3)
        grid = cm.Grid(axes=((-7.0, 7.0, 15),) * 3)
        runs = [
            (mollified_density_at(cf, 1.0, [0.0] * 3, params),
             mollified_density_grid(cf, 1.0, grid, params).values.tobytes())
            for params in (MollificationParams(tail_tol=1e-8), None)
        ]
        assert runs[0] == runs[1]
        assert runs[0][0] == pytest.approx((4.0 * math.pi) ** -1.5, abs=1e-10)

    def test_four_dimensions_with_explicit_nodes(self):
        # no dimension cap: 24^4 nodes are well inside the node budget
        params = MollificationParams(truncation_radius=6.0, nodes_per_axis=24)
        v = mollified_density_at(_gauss_cf(4), 1.0, [0.0] * 4, params)
        assert v == pytest.approx((2.0 * math.pi * 2.0) ** -2, abs=1e-10)

    @pytest.mark.parametrize("d, call", [
        (5, lambda cf: mollified_density_at(cf, 1.0, [0.0] * 5)),
        (5, lambda cf: mollified_density_grid(cf, 1.0, cm.Grid(axes=((-1.0, 1.0, 2),) * 5))),
        (5, lambda cf: invert_density_at(cf, [0.0] * 5)),
        (5, lambda cf: cf_l1_bound(cf)),
        (20, lambda cf: invert_density_at(cf, [0.0] * 20)),
        (20, lambda cf: invert_density_grid(cf, cm.Grid(axes=((-1.0, 1.0, 2),) * 20))),
    ], ids=["mollified_at-5", "mollified_grid-5", "inverted_at-5", "l1_bound-5",
            "inverted_at-20", "inverted_grid-20"])
    def test_node_budget_fails_before_chi(self, d, call):
        # 64^d default nodes are over the budget: the failure comes before
        # the decay scan (2^19 directions at d = 20) calls chi at all
        calls = []
        gauss = _gauss_cf(d)

        def counting(pts):
            calls.append(len(pts))
            return gauss.batch_eval(pts)

        with pytest.raises(NumericFailure, match="budget"):
            call(CharFn(d, counting, "yes", "counting"))
        assert calls == []

    def test_negativity_policy(self):
        vals = np.array([0.5, -0.5 * NEGATIVITY_TOL, 1e-3])
        params = MollificationParams()
        out = mo._certify(vals + 0j, 1.0, params)
        assert np.array_equal(out, [0.5, 0.0, 1e-3])
        with pytest.raises(NumericFailure, match="below -1e-06"):
            mo._certify(np.array([0.5, -2.0 * NEGATIVITY_TOL]) + 0j, 1.0, params)
        with pytest.raises(NumericFailure, match="L1 certificate"):
            mo._certify(np.array([0.5, 0.4]) + 0j, 0.45, params)

    def test_node_budget_guard(self):
        spec = cm.Product(factors=(cm.Laplace1D(scale=1.0), cm.Laplace1D(scale=1.0)))
        cf = gaussian_mollify_cf(make_cf(spec), 1.0)
        # force an absurd manual configuration: budget must trip before
        # the lattice is materialized
        object.__setattr__(cf, "integrable", "yes")
        laplace2 = make_cf(spec)
        with pytest.raises(NumericFailure, match="budget"):
            invert_density_at(laplace2, [0.0, 0.0], allow_unknown_integrability=True)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("radius", [None, 12.0])
    def test_plan_weights_carry_the_damping(self, d, sigma, radius):
        # each axis's weights are the trapezoid rule for
        # integral exp(-sigma^2 y^2 / 2) dy = sqrt(2 pi) / sigma
        params = MollificationParams(truncation_radius=radius, nodes_per_axis=None if radius is None else 256)
        plan = mo._plan(_gauss_cf(d), sigma, params)
        for w in plan.weights:
            assert w.sum() == pytest.approx(math.sqrt(2.0 * math.pi) / sigma, rel=1e-6)
        undamped = mo._plan(_gauss_cf(d), 0.0, MollificationParams(truncation_radius=12.0))
        assert all(w.sum() == pytest.approx(24.0, rel=1e-12) for w in undamped.weights)

    def test_explicit_radius_disables_autoscaling(self, std_gaussian):
        cf = make_cf(std_gaussian)
        params = MollificationParams(truncation_radius=8.0, nodes_per_axis=256)
        v = mollified_density_at(cf, 1.0, [0.0], params)
        assert v == pytest.approx(INV_SQRT_4PI, abs=1e-6)


def _gauss_cf(d):
    return make_cf(cm.Gaussian(mean=[0.0] * d, cov=np.eye(d).tolist()))


_G1, _G2, _G5 = _gauss_cf(1), _gauss_cf(2), _gauss_cf(5)
_GRID1 = cm.Grid(axes=((-4.0, 4.0, 33),))
_GRID2 = cm.Grid(axes=((-4.0, 4.0, 9),) * 2)
_GRID5 = cm.Grid(axes=((-1.0, 1.0, 2),) * 5)

# (case, call, message) for the checks all five public functions share
_PRECONDITIONS = [
    *[
        (f"{name}-point{np.shape(z)}-d{cf.d}", functools.partial(fn, cf, z), "dimension")
        for name, fn in [
            ("mollified_at", lambda cf, z: mollified_density_at(cf, 0.5, z)),
            ("inverted_at", invert_density_at),
        ]
        for cf, z in [(_G1, [0.0, 0.0]), (_G1, [[0.0]]), (_G2, [0.0]), (_G2, 0.0),
                      (_G2, [[0.0, 0.0]]), (_G2, [0.0, 0.0, 0.0])]
    ],
    ("mollified_grid-dim", lambda: mollified_density_grid(_G1, 0.5, _GRID2), "dimension"),
    ("mollified_grid-dim2", lambda: mollified_density_grid(_G2, 0.5, _GRID1), "dimension"),
    ("inverted_grid-dim", lambda: invert_density_grid(_G1, _GRID2), "dimension"),
    ("inverted_grid-dim2", lambda: invert_density_grid(_G2, _GRID1), "dimension"),
    *[
        (f"mollified_grid-workers{w}",
         functools.partial(mollified_density_grid, _G1, 0.5, _GRID1, workers=w), "workers")
        for w in (0, -1)
    ],
    *[
        (f"inverted_grid-workers{w}",
         functools.partial(invert_density_grid, _G1, _GRID1, workers=w), "workers")
        for w in (0, -1)
    ],
    # the one size cap is the node budget: 64^5 default nodes are over it
    ("mollified_at-cap", lambda: mollified_density_at(_G5, 0.5, [0.0] * 5), "budget"),
    ("mollified_grid-cap", lambda: mollified_density_grid(_G5, 0.5, _GRID5), "budget"),
    ("inverted_at-cap", lambda: invert_density_at(_G5, [0.0] * 5), "budget"),
    ("inverted_grid-cap", lambda: invert_density_grid(_G5, _GRID5), "budget"),
    ("l1_bound-cap", lambda: cf_l1_bound(_G5), "budget"),
    *[
        (f"mollified_at-sigma{s}", functools.partial(mollified_density_at, _G1, s, [0.0]), "sigma")
        for s in (0.0, -1.0, math.nan, math.inf)
    ],
    *[
        (f"mollified_grid-sigma{s}",
         functools.partial(mollified_density_grid, _G1, s, _GRID1), "sigma")
        for s in (0.0, -1.0, math.nan, math.inf)
    ],
]


@pytest.mark.parametrize(
    "call, message", [c[1:] for c in _PRECONDITIONS], ids=[c[0] for c in _PRECONDITIONS]
)
def test_shared_density_preconditions(call, message):
    with pytest.raises(NumericFailure if message == "budget" else ValidationError, match=message):
        call()


def _phase_contract(t, y, z):
    """Contract axis 0 of an (m, B) ``t`` against exp(-i z_a y_k) by
    ``_phase_product``, the phase matrix built in blocks, with the B
    columns as its batch (the lattice's last axis); shape (B, n)."""
    batch = t.T
    out = np.empty((len(batch), len(z)), dtype=complex)
    mo._phase_product(batch[:, :, None], y, z, None, out[:, :, None])
    return out


class TestContractAxis:
    def test_long_axis_matches_direct(self):
        # a vector splits k = q*K + s (20000 is not a multiple of K); the
        # regrouped sum (a matrix-vector product onto one point, a batched
        # chirp-z onto several) and the blocked phase matrix of a batched
        # axis must agree with the plain phase matrix on uniform z axes,
        # also off-centre
        rng = np.random.default_rng(0)
        m = 20000
        y = np.linspace(-30.0, 30.0, m)
        cases = [((m,), 1), ((m,), 2), ((m,), 1201), ((m, 7), 1), ((m, 7), 3)]
        for (shape, n_z), window in itertools.product(cases, [(-3.0, 3.0), (-2.5, 9.5)]):
            z = np.linspace(*window, n_z) if n_z > 1 else np.array([window[1]])
            t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            contract = mo._vector_contract if len(shape) == 1 else _phase_contract
            fact = contract(t, y, z)
            assert fact.shape == shape[1:] + (n_z,)
            picks = np.unique(np.r_[np.arange(0, n_z, 37), n_z - 1])
            direct = np.tensordot(t, np.exp(-1j * np.outer(z[picks], y)), axes=([0], [1]))
            assert np.max(np.abs(fact[..., picks] - direct)) <= 1e-12 * np.max(np.abs(direct))

    @pytest.fixture(scope="class")
    def laplace_axis(self):
        """The 1.3M-node decay-scan lattice of Laplace(1), which reaches
        |y| = 65536, with its weights W and sum of |W|."""
        cf = make_cf(cm.Laplace1D(scale=1.0))
        plan = mo._plan(cf, 0.0, MollificationParams())
        y = plan.nodes[0]
        assert len(y) > 4096  # more than one 4096-node row
        t, abs_sum = mo._weight_tensor(cf, plan, 0, len(y))
        assert abs_sum == pytest.approx(float(np.sum(np.abs(t))), rel=1e-14, abs=0)
        return y, t, abs_sum

    def test_long_laplace_axis_matches_extended_precision(self, laplace_axis):
        # at |y| = 65536, y[1] - y[0] loses about 5 digits of the node
        # spacing; the grid and the one-point contractions must both match
        # a long-double sum
        y, t, abs_sum = laplace_axis
        z = np.linspace(-3.7, 8.3, 1201)
        picks = [0, 517, 1200]
        grid = mo._vector_contract(t, y, z)[picks]
        points = [mo._vector_contract(t, y, z[i : i + 1])[0] for i in picks]
        yl = y.astype(np.longdouble)
        re, im = t.real.astype(np.longdouble), t.imag.astype(np.longdouble)
        for g, p, za in zip(grid, points, z[picks].astype(np.longdouble)):
            c, s = np.cos(za * yl), np.sin(za * yl)
            ref = complex(float(np.sum(re * c + im * s)), float(np.sum(im * c - re * s)))
            for value in (g, p):
                assert abs(value.real - ref.real) <= 1e-11 * abs_sum
                assert abs(value.imag - ref.imag) <= 1e-11 * abs_sum

    def test_chirp_batch_cap_bounds_memory(self, laplace_axis, monkeypatch):
        # the chirp takes the 4096-node rows of a long vector in groups whose
        # FFT temporaries hold at most _PHASE_BLOCK elements; capping them
        # must leave the values alone and keep the peak near the input size
        y, t, _ = laplace_axis
        z = np.linspace(-3.7, 8.3, 1201)
        whole = mo._vector_contract(t, y, z)
        monkeypatch.setattr(mo, "_PHASE_BLOCK", 1 << 16)
        capped = None

        def run():
            nonlocal capped
            capped = mo._vector_contract(t, y, z)

        peak = traced_peak_mb(run)
        assert np.max(np.abs(capped - whole)) <= 1e-13 * np.max(np.abs(whole))
        # a few 1 MiB temporaries and one padded row, about 4 MB; a padded
        # copy of the 21 MB input took 25 MB (86 MB uncapped)
        assert peak < 8.0

    def test_one_point_laplace_is_not_cast_to_complex(self):
        # the real W of the 1.3M-node Laplace(1) lattice meets the one-point
        # phase row read as (k, 2) floats; casting W to complex for the
        # product (20 MiB) took the peak to 51 MiB
        cf = make_cf(cm.Laplace1D(scale=1.0))
        peak = traced_peak_mb(lambda: invert_density_at(cf, [0.3]))
        assert peak < 40.0

    @pytest.mark.parametrize("m", [16, 4096, 5000])
    def test_real_rows_onto_one_point_match_complex(self, m):
        # whole rows, one partial row, and both; real rows take the real
        # product and move the sums by rounding only
        rng = np.random.default_rng(m)
        y = np.linspace(-40.0, 40.0, m)
        t = rng.standard_normal(m)
        z = np.array([1.7])
        real = mo._vector_contract(t, y, z)
        cast = mo._vector_contract(t.astype(complex), y, z)
        assert np.max(np.abs(real - cast)) <= 1e-14 * np.sum(np.abs(t))

    @pytest.mark.parametrize("m", [16, 652])
    @pytest.mark.parametrize("n_z", [1, 2, 3, 513, 2049])
    @pytest.mark.parametrize("window", [(-8.0, 8.0), (-9.5, 10.5), (3.0, 40.0)])
    def test_chirp_matches_phase_matrix(self, m, n_z, window):
        # a vector takes the row split, its inner sums a matrix-vector
        # product onto one point and the chirp-z form onto more; both must
        # agree with the explicit phase matrix, also on off-centre windows
        rng = np.random.default_rng(m + n_z)
        y = np.linspace(-17.3, 17.3, m)
        z = np.linspace(*window, n_z)
        t = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        direct = np.tensordot(t, np.exp(-1j * np.outer(z, y)), axes=([0], [1]))
        chirp = mo._vector_contract(t, y, z)
        assert chirp.shape == direct.shape
        assert np.max(np.abs(chirp - direct)) <= 1e-12 * np.max(np.abs(direct))

    @pytest.mark.parametrize("batch, n_z", [(7, 3), (21, 64)])
    def test_batched_axis_takes_direct_path(self, batch, n_z):
        # batched axes of 2-d/3-d lattices run the blocked phase matrix,
        # also when the z axis outnumbers the batch (a 2-d grid whose first
        # axis a worker split into 21-point chunks)
        rng = np.random.default_rng(1)
        m = 652
        y = np.linspace(-17.3, 17.3, m)
        z = np.linspace(-9.5, 10.5, n_z)
        t = rng.standard_normal((m, batch)) + 1j * rng.standard_normal((m, batch))
        direct = np.tensordot(t, np.exp(-1j * np.outer(z, y)), axes=([0], [1]))
        out = _phase_contract(t, y, z)
        assert out.shape == (batch, n_z)
        assert np.max(np.abs(out - direct)) <= 1e-12 * np.max(np.abs(direct))


_NO_SCIPY_SCRIPT = """
import contextlib, io, sys
import cfmoll
loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']
import cfmoll.cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = cfmoll.cli.main(['selfcheck'])
gauss = cfmoll.make_cf(cfmoll.Gaussian(mean=[0.0], cov=[[1.0]]))
cfmoll.convergence_certificate([gauss], gauss, [1, 2], cfmoll.Grid.parse('-6:6:97'), 0.1)
loaded += [m for m in sys.modules if m.split('.')[0] == 'scipy']
print(rc, sorted(set(loaded)))
"""


def test_runtime_path_loads_no_scipy():
    # scipy is a test dependency only: `import cfmoll`, a CLI selfcheck and
    # a certificate load no scipy module, so no CLI call pays its import
    out = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT], capture_output=True, text=True,
        env=subprocess_env(),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "0 []"


class _RecordingPool:
    """Stands in for ThreadPoolExecutor: records the requested pool size and
    runs the jobs serially, so no thread is started."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def _small_3d_case():
    # a 52^3 and 51^3 lattice pair, each in 8 slabs; non-square grid
    spec = cm.Gaussian(
        mean=[0.0, 0.3, -0.2],
        cov=[[1.0, 0.5, 0.2], [0.5, 1.0, -0.3], [0.2, -0.3, 0.8]],
    )
    params = MollificationParams(truncation_radius=6.0, nodes_per_axis=48)
    grid = cm.Grid(axes=((-6.0, 6.0, 13), (-6.0, 6.5, 14), (-6.5, 6.0, 15)))
    return make_cf(spec), params, grid


def _real_3d_product():
    return cm.Product(factors=(
        cm.UniformBox(lo=[-1.0], hi=[1.0]),
        cm.Laplace1D(scale=0.7),
        cm.Gaussian(mean=[0.0], cov=[[1.0]]),
    ))


def _empirical_2d(atoms):
    rng = np.random.default_rng(2024)
    pts = rng.uniform(-2.0, 2.0, size=(atoms, 2))
    w = rng.uniform(0.5, 1.5, size=atoms)
    return make_cf(cm.Empirical(points=pts, weights=w / w.sum()))


class TestSlabs:
    def test_3d_grid_bytes_identical_across_workers(self):
        cf, params, grid = _small_3d_case()
        assert len(mo._slabs(mo._plan(cf, 1.0, params).shape)) > 1
        fields = [mollified_density_grid(cf, 1.0, grid, params, workers=w) for w in (1, 2, 3)]
        for f in fields[1:]:
            assert f.values.tobytes() == fields[0].values.tobytes()

    def test_3d_real_grid_bytes_identical_across_workers(self):
        # a real chi: real slabs and row-factored closed forms
        _, params, grid = _small_3d_case()
        cf = make_cf(_real_3d_product())
        fields = [mollified_density_grid(cf, 1.0, grid, params, workers=w) for w in (1, 2, 3)]
        for f in fields[1:]:
            assert f.values.tobytes() == fields[0].values.tobytes()

    def test_1d_long_axis_identical_across_workers(self):
        # the Laplace decay scan gives a lattice of more than one 4096-node
        # row; a 1-d lattice is one job, whatever the worker count
        cf = make_cf(cm.Laplace1D(scale=1.0))
        grid = cm.Grid(axes=((-6.0, 6.0, 101),))
        assert mo._plan(cf, 0.0, MollificationParams()).shape[0] > 4096
        serial = invert_density_grid(cf, grid, workers=1)
        threaded = invert_density_grid(cf, grid, workers=2)
        assert serial.values.tobytes() == threaded.values.tobytes()

    @pytest.mark.parametrize("case", ["2d", "3d"])
    def test_slabs_match_one_slab(self, case, monkeypatch):
        if case == "2d":
            cf, sigma = _empirical_2d(10), 0.5
            params = MollificationParams()
            z_axes = [np.linspace(-5.0, 5.0, 64), np.linspace(-4.0, 5.0, 48)]
        else:
            cf, params, grid = _small_3d_case()
            sigma = 1.0
            z_axes = [grid.axis_points(j) for j in range(3)]
        plan = mo._plan(cf, sigma, params)
        assert len(mo._slabs(plan.shape)) > 1
        vals, mass = mo._scaled_transform(cf, plan, z_axes)
        monkeypatch.setattr(mo, "_SLAB_NODES", math.prod(plan.shape))
        monkeypatch.setattr(mo, "_MIN_SLABS", 1)
        assert mo._slabs(plan.shape) == [(0, plan.shape[0])]
        whole, whole_mass = mo._scaled_transform(cf, plan, z_axes)
        assert np.max(np.abs(vals - whole)) <= 1e-13 * np.max(np.abs(whole))
        assert mass == pytest.approx(whole_mass, rel=1e-12, abs=0)

    def test_rebuilt_charfn_gives_identical_bytes(self):
        # a CharFn rebuilt from its public fields (as a tracing wrapper does)
        # must not change the values
        cf, params, grid = _small_3d_case()
        rebuilt = CharFn(cf.d, cf.batch_eval, cf.integrable, cf.provenance)
        a = mollified_density_grid(cf, 1.0, grid, params, workers=2)
        b = mollified_density_grid(rebuilt, 1.0, grid, params, workers=2)
        assert a.values.tobytes() == b.values.tobytes()

    def test_2d_empirical_many_atoms_memory_is_bounded(self):
        # 2000 atoms: a 12-row slab of the 96^2 lattice times the atoms
        # peaked near 70 MB; the atom chunks hold it near 12 MB
        cf = _empirical_2d(2000)
        params = MollificationParams(truncation_radius=11.6, nodes_per_axis=96)
        grid = cm.Grid(axes=((-5.0, 5.0, 64),) * 2)
        peak = traced_peak_mb(lambda: mollified_density_grid(cf, 0.5, grid, params, workers=1))
        assert peak < 32.0

    def test_2d_empirical_memory_is_bounded(self):
        # the whole 512^2 lattice times 50 atoms peaked near 400 MB
        cf = _empirical_2d(50)
        grid = cm.Grid(axes=((-5.0, 5.0, 64),) * 2)
        peak = traced_peak_mb(lambda: mollified_density_grid(cf, 0.5, grid, workers=1))
        assert peak < 64.0

    def test_3d_threaded_memory_is_bounded(self):
        # 164^3 lattice on two workers: about 45 MB in slabs, 370 MB whole
        cf = make_cf(cm.Gaussian(mean=[0.0] * 3, cov=np.eye(3).tolist()))
        grid = cm.Grid(axes=((-6.0, 6.0, 48),) * 3)
        peak = traced_peak_mb(lambda: mollified_density_grid(cf, 0.7, grid, workers=2))
        assert peak < 80.0

    def test_238_cubed_memory_is_bounded(self):
        # the 60 slabs of a 238^3 lattice on two workers: a meshgrid, its
        # stacked points and chi's temporaries per slab peaked near 42 MB;
        # filled in blocks, two slabs and their contractions take about 16
        cf = make_cf(cm.Gaussian(mean=[0.0] * 3, cov=np.eye(3).tolist()))
        grid = cm.Grid(axes=((-6.0, 6.0, 48),) * 3)
        assert mo._plan(cf, 0.5, MollificationParams()).shape == (238,) * 3
        peak = traced_peak_mb(lambda: mollified_density_grid(cf, 0.5, grid, workers=2))
        assert peak < 24.0

    def test_l1_bound_is_the_grid_certificate(self, monkeypatch):
        # cf_l1_bound sums the same slabs as the transform, in the same order
        cf = make_cf(cm.Gaussian(mean=[0.0, 0.5], cov=[[1.0, 0.6], [0.6, 1.5]]))
        bounds = []
        inner = mo._scaled_transform

        def recording(*args, **kwargs):
            vals, bound = inner(*args, **kwargs)
            bounds.append(bound)
            return vals, bound

        monkeypatch.setattr(mo, "_scaled_transform", recording)
        invert_density_grid(cf, cm.Grid(axes=((-5.0, 5.0, 32), (-5.0, 5.0, 32))), workers=2)
        plan = mo._plan(cf, 0.0, MollificationParams())
        assert len(mo._slabs(plan.shape)) > 1
        assert bounds == [cf_l1_bound(cf)]


def _one_shot_weights(cf, plan, lo, hi):
    """The slab's W from one meshgrid and one chi call: the reference for
    the blocked ``_weight_tensor``."""
    nodes = (plan.nodes[0][lo:hi],) + plan.nodes[1:]
    mesh = np.meshgrid(*nodes, indexing="ij")
    w = cf.batch_eval(np.stack([m.reshape(-1) for m in mesh], axis=-1)).reshape(mesh[0].shape)
    for j, f in enumerate(plan.weights):
        w = w * (f[lo:hi] if j == 0 else f).reshape([-1 if a == j else 1 for a in range(plan.d)])
    return w


def _plan(*ms):
    """A hand-built plan with weights damped at sigma = 0.5; an axis of one
    node sits at 0.3 with undamped weight 1."""
    rules = [mo._axis_rule(4.0, m) if m > 1 else (np.array([0.3]), np.array([1.0])) for m in ms]
    return mo.QuadPlan(
        nodes=tuple(y for y, _ in rules),
        weights=tuple(w * np.exp(-0.125 * y**2) for y, w in rules),
    )


class TestBlockedEvaluation:
    CFS = {
        1: make_cf(cm.Convolution(parts=(cm.Laplace1D(scale=0.7), cm.UniformBox(lo=[-1.0], hi=[0.5])))),
        2: _empirical_2d(10),
        3: make_cf(cm.Gaussian(mean=[0.0, 0.3, -0.2], cov=[[1.0, 0.5, 0.2], [0.5, 1.0, -0.3], [0.2, -0.3, 0.8]])),
    }

    @pytest.mark.parametrize(
        "shape, lo, hi",
        [
            ((1000,), 0, 1000), ((1,), 0, 1),
            ((37, 23), 0, 37), ((37, 23), 5, 30), ((5, 1), 0, 5), ((1, 40), 0, 1),
            ((6, 7, 9), 2, 6), ((3, 1, 5), 0, 3), ((4, 6, 1), 1, 4), ((1, 1, 1), 0, 1),
        ],
    )
    @pytest.mark.parametrize("block", [7, 50, 1 << 14])
    def test_blocks_match_one_shot(self, shape, lo, hi, block, monkeypatch):
        # blocks that split rows, end in a partial block, or hold the slab
        plan = _plan(*shape)
        cf = self.CFS[len(shape)]
        ref = _one_shot_weights(cf, plan, lo, hi)
        monkeypatch.setattr(mo, "_EVAL_BLOCK", block)
        w, mass = mo._weight_tensor(cf, plan, lo, hi)
        assert w.shape == ref.shape
        assert np.max(np.abs(w - ref)) <= 1e-15 * np.max(np.abs(ref))
        assert mass == pytest.approx(float(np.sum(np.abs(ref))), rel=1e-14, abs=0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_block_size_leaves_values_alone(self, d, monkeypatch):
        # grid and pointwise (one-point z axes) results in small blocks and
        # in one block per slab.  No explicit box: the Empirical's chi does
        # not decay, so at sigma = 0.8 a box of 6 leaves an endpoint term
        # that the 2-d period search chases to 1970^2 nodes
        cf = self.CFS[d]
        params = MollificationParams(nodes_per_axis=48)
        grid = cm.Grid(axes=((-8.0, 8.5, 17),) * d)
        point = np.linspace(-0.4, 0.6, d)

        def run():
            f = mollified_density_grid(cf, 0.8, grid, params, workers=2)
            return f.values, mollified_density_at(cf, 0.8, point, params)

        monkeypatch.setattr(mo, "_EVAL_BLOCK", 7)
        small = run()
        monkeypatch.setattr(mo, "_EVAL_BLOCK", 48**d)
        whole = run()
        assert np.max(np.abs(small[0] - whole[0])) <= 1e-15 * np.max(whole[0])
        assert small[1] == pytest.approx(whole[1], rel=1e-14)


class TestWorkers:
    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        monkeypatch.setattr(_RecordingPool, "sizes", [])
        monkeypatch.setattr(mo, "ThreadPoolExecutor", _RecordingPool)
        return _RecordingPool.sizes

    def test_pool_never_exceeds_the_slab_count(self, pool_sizes, transforms):
        # each transform of the searched pair starts its own pool
        cf, params, grid = _small_3d_case()
        mollified_density_grid(cf, 1.0, grid, params, workers=3)
        slabs = [len(mo._slabs(shape)) for shape in transforms]
        mollified_density_grid(cf, 1.0, grid, params, workers=max(slabs) + 4)
        assert min(slabs) > 3 and pool_sizes == [3] * len(slabs) + slabs

    def test_pool_on_1d_grids(self, pool_sizes, std_gaussian):
        # a 1-d lattice is one job, so no 1-d grid starts a pool, also on
        # the long Laplace lattice
        mollified_density_grid(make_cf(std_gaussian), 0.5, cm.Grid(axes=((-8.0, 8.0, 128),)), workers=4)
        invert_density_grid(make_cf(cm.Laplace1D(scale=1.0)), cm.Grid(axes=((-6.0, 6.0, 11),)), workers=1)
        assert pool_sizes == []
        invert_density_grid(make_cf(cm.Laplace1D(scale=1.0)), cm.Grid(axes=((-6.0, 6.0, 11),)), workers=2)
        assert pool_sizes == []

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_fewer_than_one_worker(self, workers, std_gaussian):
        cf = make_cf(std_gaussian)
        grid = cm.Grid(axes=((-8.0, 8.0, 64),))
        with pytest.raises(ValidationError):
            mollified_density_grid(cf, 0.5, grid, workers=workers)
        with pytest.raises(ValidationError):
            invert_density_grid(cf, grid, workers=workers)


class TestRealSlabs:
    """A real chi gives a real W, weighted and first contracted in real
    arithmetic; a complex block turns the slab complex."""

    @staticmethod
    def _flipping(cf, first):
        """chi as float on every other block and complex on the rest,
        complex first when ``first`` is 1."""
        calls = itertools.count(first)

        def ev(pts):
            vals = cf.batch_eval(pts)
            return vals.astype(complex) if next(calls) % 2 else vals

        return CharFn(cf.d, ev, cf.integrable)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_mixed_blocks_match_complex_blocks(self, d, monkeypatch):
        spec = cm.Product(factors=(cm.Laplace1D(scale=0.7), cm.UniformBox(lo=[-1.0], hi=[1.0]),
                                   cm.Gaussian(mean=[0.0], cov=[[1.0]]))[:d])
        cf = make_cf(spec)
        complex_cf = CharFn(d, lambda pts: cf.batch_eval(pts).astype(complex), "yes")
        plan = mo._plan(cf, 0.7, MollificationParams(truncation_radius=8.0, nodes_per_axis=40))
        monkeypatch.setattr(mo, "_EVAL_BLOCK", 16)  # several blocks per slab
        z_axes = [np.linspace(-4.0, 4.0, 11)] * d
        lo, hi = mo._slabs(plan.shape)[0]
        real, real_mass = mo._weight_tensor(cf, plan, lo, hi)
        assert real.dtype == np.float64
        for first in (0, 1):
            mixed, mass = mo._weight_tensor(self._flipping(cf, first), plan, lo, hi)
            assert mixed.dtype == np.complex128
            assert np.array_equal(mixed, real) and mass == real_mass
        want, want_mass = mo._scaled_transform(complex_cf, plan, z_axes)
        for ev in (cf, self._flipping(cf, 0), self._flipping(cf, 1)):
            got, mass = mo._scaled_transform(ev, plan, z_axes)
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
            assert mass == want_mass


class TestSlabWalk:
    """Per-worker buffers reused from slab to slab, inner axes contracted
    into a row buffer, and one axis-0 product per row group."""

    # the middle axis has one point
    Z_AXES = [np.linspace(-3.0, 2.0, 5), np.array([0.4]), np.linspace(-2.5, 3.5, 7)]

    @staticmethod
    def _dense(cf, plan, z_axes):
        """The scaled sums and |W| mass from the whole lattice at once."""
        mesh = np.meshgrid(*plan.nodes, indexing="ij")
        pts = np.stack([m.reshape(-1) for m in mesh], axis=-1)
        weights = functools.reduce(np.multiply.outer, plan.weights)
        w = cf.batch_eval(pts).reshape(plan.shape) * weights
        phases = [np.exp(-1j * np.outer(y, z)) for y, z in zip(plan.nodes, z_axes)]
        scale = (2.0 * math.pi) ** -3
        return scale * np.einsum("ijk,ia,jb,kc->abc", w, *phases), scale * float(np.sum(np.abs(w)))

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("row_group, phase_block", [(None, None), (50, None), (50, 60)])
    def test_matches_dense_reference(self, kind, row_group, phase_block, monkeypatch):
        # 7 slabs of 3 rows and a last one of 2; optionally several row
        # groups, and phase matrices built in blocks on axes 0 and 2
        plan = _plan(20, 22, 26)
        slabs = mo._slabs(plan.shape)
        assert len(slabs) == 7 and slabs[-1] == (18, 20)
        if row_group is not None:
            monkeypatch.setattr(mo, "_ROW_GROUP", row_group)
            assert len(mo._row_groups(slabs, 7)) == 4
        if phase_block is not None:
            monkeypatch.setattr(mo, "_PHASE_BLOCK", phase_block)
        cf = make_cf(_real_3d_product()) if kind == "real" else TestBlockedEvaluation.CFS[3]
        assert np.iscomplexobj(cf.batch_eval(np.zeros((1, 3)))) == (kind == "complex")
        want, want_mass = self._dense(cf, plan, self.Z_AXES)
        runs = [mo._scaled_transform(cf, plan, self.Z_AXES, workers) for workers in (1, 2, 3)]
        for got, mass in runs:
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
            assert mass == pytest.approx(want_mass, rel=1e-13, abs=0)
            assert got.tobytes() == runs[0][0].tobytes() and mass == runs[0][1]

    def test_buffer_sets_under_thread_switching(self, monkeypatch):
        # more workers than cores, one-row slabs and a short switch
        # interval: two slabs sharing a buffer set would corrupt the sums
        plan = _plan(20, 22, 26)
        monkeypatch.setattr(mo, "_SLAB_NODES", 22 * 26)
        assert len(mo._slabs(plan.shape)) == 20
        cf = TestBlockedEvaluation.CFS[3]
        serial, _ = mo._scaled_transform(cf, plan, self.Z_AXES, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                threaded, _ = mo._scaled_transform(cf, plan, self.Z_AXES, 6)
                assert threaded.tobytes() == serial.tobytes()
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_thin_window_memory_follows_the_row_group(self, workers):
        # a 2 x 200 x 200 window over the 238^3 lattice: its 238 contracted
        # rows take 145 MiB in one buffer, and row groups hold them to
        # _ROW_GROUP complex values (16 MiB); the output and one group's
        # product take 2.5 MiB, and each worker's W, inner-axis output,
        # point block and chi's block temporaries about 8 MiB
        cf = make_cf(cm.Gaussian(mean=[0.0] * 3, cov=np.eye(3).tolist()))
        plan = mo._plan(cf, 0.5, MollificationParams())
        assert plan.shape == (238,) * 3
        z_axes = [np.linspace(-0.5, 0.5, 2)] + [np.linspace(-6.0, 6.0, 200)] * 2
        assert len(mo._row_groups(mo._slabs(plan.shape), 200 * 200)) > 1
        peak = traced_peak_mb(lambda: mo._scaled_transform(cf, plan, z_axes, workers))
        assert peak < mo._ROW_GROUP * 16 / 2.0**20 + 2.5 + 10.0 * workers

    def test_buffers_do_not_grow_with_the_slab_count(self, monkeypatch):
        # the 238^3 lattice in 8 slabs and in 60: the same buffers serve
        # every slab of a call
        cf = make_cf(cm.Gaussian(mean=[0.0] * 3, cov=np.eye(3).tolist()))
        plan = mo._plan(cf, 0.5, MollificationParams())
        z_axes = [np.linspace(-6.0, 6.0, 8)] * 3
        take = mo._Buffers.take

        def allocated(slab_nodes):
            made = {}

            def recording(self, *args):
                out = take(self, *args)
                made[id(out.base)] = out.base
                return out

            monkeypatch.setattr(mo._Buffers, "take", recording)
            monkeypatch.setattr(mo, "_SLAB_NODES", slab_nodes)
            mo._scaled_transform(cf, plan, z_axes, 1)
            return len(mo._slabs(plan.shape)), len(made)

        few, many = allocated(30 * 238**2), allocated(1 << 18)
        assert (few[0], many[0]) == (8, 60)
        # the point block, W, its |W| scratch and the last axis's output
        assert few[1] == many[1] == 4


# ---------------------------------------------------------------------------
# The alias period search of 2-d and 3-d smoothing lattices
# ---------------------------------------------------------------------------

_CORR = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]])
_LAPLACE_B = 0.7


def _atoms_2d(atoms):
    # the benchmark's 2-d Empirical laws: atom counts 10, 15, .., 50 from one seed
    rng = np.random.default_rng(2024)
    for n in range(10, atoms + 5, 5):
        pts = rng.uniform(-2.0, 2.0, size=(n, 2))
        w = rng.uniform(0.5, 1.5, size=n)
    return pts, w / w.sum()


def _gauss_nd(pts, cov):
    sol = np.linalg.solve(cov, pts.T)
    norm = math.sqrt((2.0 * math.pi) ** len(cov) * np.linalg.det(cov))
    return np.exp(-0.5 * np.sum(pts.T * sol, axis=0)) / norm


def _search_laws():
    """(name, spec, closed-form smoothed density (pts, sigma), grid window
    half-width) for the laws of the benchmark's smooth-nd workload."""

    def product(p, s):
        r2 = s * math.sqrt(2.0)
        a = s * s / _LAPLACE_B
        lap = np.exp(-0.5 * p[:, 1] ** 2 / s**2) / (4.0 * _LAPLACE_B) * (
            erfcx((a - p[:, 1]) / r2) + erfcx((a + p[:, 1]) / r2))
        box = 0.5 * (ndtr((p[:, 0] + 1.0) / s) - ndtr((p[:, 0] - 1.0) / s))
        return box * lap * gaussian_density(p[:, 2], var=1.0 + s * s)

    def mixture(p, s):
        atoms, w = _atoms_2d(50)
        return sum(wj * _gauss_nd(p - a, s * s * np.eye(2)) for a, wj in zip(atoms, w))

    eye = np.eye(3)
    return [
        ("gauss", cm.Gaussian(mean=[0.0] * 3, cov=eye.tolist()),
         lambda p, s: _gauss_nd(p, (1.0 + s * s) * eye), 6.0),
        ("corr", cm.Gaussian(mean=[0.0] * 3, cov=_CORR.tolist()),
         lambda p, s: _gauss_nd(p, _CORR + s * s * eye), 6.0),
        ("product", cm.Product(factors=(cm.UniformBox(lo=[-1.0], hi=[1.0]),
                                        cm.Laplace1D(scale=_LAPLACE_B),
                                        cm.Gaussian(mean=[0.0], cov=[[1.0]]))), product, 6.0),
        ("empirical", cm.Empirical(*_atoms_2d(50)), mixture, 5.0),
    ]


_SEARCH_LAWS = _search_laws()


@pytest.fixture
def transforms(monkeypatch):
    """The plan shapes of every lattice transform a call makes."""
    shapes = []
    real = mo._scaled_transform

    def spy(cf, plan, z_axes, workers=1):
        shapes.append(plan.shape)
        return real(cf, plan, z_axes, workers)

    monkeypatch.setattr(mo, "_scaled_transform", spy)
    return shapes


def _fixed_period(cf, sigma, z_axes, params=MollificationParams()):
    """The fixed-period trapezoid lattice at ALIAS_PERIOD (``_plan``), which
    1-d and sigma = 0 calls use; d >= 2 smoothing tries it last."""
    raw, bound = mo._scaled_transform(cf, mo._plan(cf, sigma, params), z_axes)
    return mo._certify(raw, bound, params)


def _search_radius(sigma, d):
    return truncation_radius(sigma, cm.grids.DEFAULT_TAIL_TOL / mo._SEARCH_TAIL, d)


class TestPeriodSearch:
    @pytest.mark.parametrize("name, spec, ref, half", [
        law for law in _SEARCH_LAWS if law[0] != "gauss"], ids=["corr", "product", "empirical"])
    def test_grid_and_points_agree_at_corners_and_off_window(self, name, spec, ref, half):
        # a point searches from its own window, so it may take another
        # lattice than the grid's; both are within ALIAS_TOL-level error
        cf, d, sigma = make_cf(spec), spec.dim, 0.5
        grid = cm.Grid(axes=((-half, half, 25),) * d)
        field = mollified_density_grid(cf, sigma, grid)
        pts = np.asarray(grid.points())
        assert np.max(np.abs(field.values - ref(pts, sigma))) <= 1e-10
        for i in (0, grid.size - 1):
            assert abs(mollified_density_at(cf, sigma, pts[i]) - field.values[i]) <= 1e-10
        off = np.array([half + 1.5, -half - 0.5, half + 0.5][:d])
        assert abs(mollified_density_at(cf, sigma, off) - ref(off[None, :], sigma)[0]) <= 1e-10

    @pytest.mark.parametrize("name, spec, ref, half", _SEARCH_LAWS,
                             ids=[law[0] for law in _SEARCH_LAWS])
    def test_searched_values_match_the_fixed_period_lattice(self, name, spec, ref, half):
        # the fixed lattice's own error (its tail_tol box) sets the bound,
        # which the closed form shows
        cf, d = make_cf(spec), spec.dim
        grid = cm.Grid(axes=((-half, half, 13),) * d)
        pts = np.asarray(grid.points())
        z_axes = [grid.axis_points(j) for j in range(d)]
        for sigma in ((0.5,) if d == 2 else (0.5, 0.7, 1.0)):
            searched = mollified_density_grid(cf, sigma, grid).values
            assert np.max(np.abs(searched - _fixed_period(cf, sigma, z_axes))) <= 3e-9
            assert np.max(np.abs(searched - ref(pts, sigma))) <= 3e-11

    def test_law_far_from_the_origin_reads_right_pointwise(self, transforms):
        # N((30, 0, 0), I) at its centre: a point's first period is at most
        # ALIAS_PERIOD, and at sigma = 0.5 the search's box is over the node
        # budget there, so the pair runs on the fixed plan's lattice
        cf = make_cf(cm.Gaussian(mean=[30.0, 0.0, 0.0], cov=np.eye(3).tolist()))
        for sigma in (0.5, 1.0):
            exact = (2.0 * math.pi * (1.0 + sigma**2)) ** -1.5
            assert mollified_density_at(cf, sigma, [30.0, 0.0, 0.0]) == pytest.approx(exact, rel=1e-12)
        fixed = mo._plan(cf, 0.5, MollificationParams()).shape
        assert fixed == (238,) * 3 and transforms[:2] == [fixed, (237,) * 3]

    def test_wide_law_far_out_is_right_or_names_aliasing(self, transforms):
        # N(0, 100 I) at (30, 0, 0): the fixed period of 64 read it 26% low
        # with no message.  At sigma = 0.5 its lattice is the last that fits
        # the node budget, and the pair's estimate fails; at sigma = 2 a
        # pair finds the value.
        cf = make_cf(cm.Gaussian(mean=[0.0] * 3, cov=(100.0 * np.eye(3)).tolist()))
        z = [30.0, 0.0, 0.0]
        with pytest.raises(NumericFailure, match="alias estimate.*node budget"):
            mollified_density_at(cf, 0.5, z)
        assert transforms == [(238,) * 3, (237,) * 3]
        exact = float(_gauss_nd(np.array([z]), 104.0 * np.eye(3))[0])
        assert mollified_density_at(cf, 2.0, z) == pytest.approx(exact, rel=1e-6, abs=0.0)

    def test_even_image_blind_spot(self, transforms):
        # atoms at z = (5, 5) and at z + P (1, 1), an even image of the first
        # period P of a point at z: both lattices of the pair count the far
        # atom with the same sign, so the estimate stays small, the first
        # pair is accepted and the value is twice the true one.  A node
        # floor that puts the period near 64 puts no image there.
        sigma, z = 0.5, [5.0, 5.0]
        radius = _search_radius(sigma, 2)
        m = mo._even_ceil(radius * (10.0 + mo._START_SIGMAS * sigma) / math.pi)
        period = math.pi * (m - 1) / radius
        far = [5.0 + period, 5.0 + period]
        cf = make_cf(cm.Empirical(points=[z, far], weights=[0.5, 0.5]))
        exact = 0.5 / (2.0 * math.pi * sigma**2)
        got = mollified_density_at(cf, sigma, z)
        assert transforms == [(m, m), (m - 1, m - 1)]
        assert got == pytest.approx(2.0 * exact, rel=1e-9)
        floor = MollificationParams(nodes_per_axis=mo._even_ceil(radius * 64.0 / math.pi))
        assert mollified_density_at(cf, sigma, z, floor) == pytest.approx(exact, rel=1e-9)

    def test_even_image_blind_spot_on_a_grid(self, transforms):
        # an atom of weight 1e-4 at an even image of a window point, for the
        # period the grid accepts without it: its wrapped copy keeps the
        # Riemann sum near 1, so the grid passes every check while that
        # point reads about 6e-5 high
        sigma, grid = 0.5, cm.Grid(axes=((-3.0, 3.0, 25),) * 2)
        mollified_density_grid(make_cf(cm.Empirical(points=[[0.0, 0.0]], weights=[1.0])), sigma, grid)
        alone, m = list(transforms), transforms[-2][0]
        period = math.pi * (m - 1) / _search_radius(sigma, 2)
        z = np.array([1.0, -1.0])
        far = (z + period).tolist()
        cf = make_cf(cm.Empirical(points=[[0.0, 0.0], far], weights=[1.0 - 1e-4, 1e-4]))
        transforms.clear()
        field = mollified_density_grid(cf, sigma, grid)
        assert transforms == alone and field.normalized
        pts = np.asarray(grid.points())
        exact = (1.0 - 1e-4) * _gauss_nd(pts, sigma**2 * np.eye(2))
        err = np.abs(field.values - exact)
        at_z = int(np.argmin(np.sum((pts - z) ** 2, axis=1)))
        assert err[at_z] == pytest.approx(1e-4 / (2.0 * math.pi * sigma**2), rel=1e-6)
        assert np.max(np.delete(err, at_z)) > 1e-10  # the image's tails, too

    @pytest.mark.parametrize("params, first", [
        (MollificationParams(truncation_radius=9.0), 64),
        (MollificationParams(nodes_per_axis=96), 96),
        (MollificationParams(nodes_per_axis=96, tail_tol=1e-10), 96),
    ], ids=["radius", "nodes", "nodes-tail-tol"])
    def test_explicit_radius_is_the_box_and_nodes_a_floor(self, params, first, monkeypatch):
        # 3-d smoothing searches whatever the fields: the radius is every
        # pair's box, and the node count the first pair's floor
        radii = []
        real = mo._build_plan

        def spy(radii_, ms, sigma, midpoint=False):
            radii.append((radii_[0], ms[0], midpoint))
            return real(radii_, ms, sigma, midpoint)

        monkeypatch.setattr(mo, "_build_plan", spy)
        cf = make_cf(cm.Gaussian(mean=[0.0] * 3, cov=_CORR.tolist()))
        grid = cm.Grid(axes=((-6.0, 6.0, 25),) * 3)
        got = mollified_density_grid(cf, 0.7, grid, params).values
        exact = _gauss_nd(np.asarray(grid.points()), _CORR + 0.49 * np.eye(3))
        assert np.max(np.abs(got - exact)) <= 1e-10
        box = params.truncation_radius or truncation_radius(0.7, params.tail_tol / mo._SEARCH_TAIL, 3)
        assert radii[:2] == [(box, first, False), (box, first, True)]

    def test_searched_plans_and_the_sidecar_count(self):
        # d >= 2 smoothing has no default node floor; a set one is recorded
        params = MollificationParams()
        assert [params.nodes(d, 0.5) for d in (1, 2, 3, 4)] == [512, None, None, None]
        assert [params.nodes(d, 0.0) for d in (1, 2, 3)] == [512, 512, 64]
        assert MollificationParams(truncation_radius=9.0).nodes(3, 0.5) is None
        assert MollificationParams(nodes_per_axis=32).nodes(2, 0.5) == 32
        assert params.to_dict(3, 0.5)["nodes_per_axis"] is None
        assert params.to_dict(3)["nodes_per_axis"] == 64
