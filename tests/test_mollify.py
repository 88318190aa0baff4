import functools
import itertools
import math
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest

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
from tests.conftest import gaussian_density, subprocess_env, traced_peak_mb

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
        plan = mo._plan(cf, 0.5, params)  # = the inversion plan at an explicit R
        raw, _ = mo._scaled_transform(cf, plan, sigma, params.tail_tol, [np.array([z])])
        assert -params.negativity_tol <= raw.item() < -1e-9
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
        out = mo._certify(vals, 1.0, 1e-6)
        assert np.array_equal(out, [0.5, 0.0, 1e-3])
        with pytest.raises(NumericFailure, match="below"):
            mo._certify(np.array([0.5, -1e-3]), 1.0, 1e-6)
        with pytest.raises(NumericFailure, match="L1 certificate"):
            mo._certify(np.array([0.5, 0.4]), 0.45, 1e-6)

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


def _gauss_cf(d):
    return make_cf(cm.Gaussian(mean=[0.0] * d, cov=np.eye(d).tolist()))


_G1, _G2, _G4 = _gauss_cf(1), _gauss_cf(2), _gauss_cf(4)
_GRID1 = cm.Grid(axes=((-4.0, 4.0, 33),))
_GRID2 = cm.Grid(axes=((-4.0, 4.0, 9),) * 2)
_GRID4 = cm.Grid(axes=((-1.0, 1.0, 2),) * 4)

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
    ("mollified_at-cap", lambda: mollified_density_at(_G4, 0.5, [0.0] * 4), "cap"),
    ("mollified_grid-cap", lambda: mollified_density_grid(_G4, 0.5, _GRID4), "cap"),
    ("inverted_at-cap", lambda: invert_density_at(_G4, [0.0] * 4), "cap"),
    ("inverted_grid-cap", lambda: invert_density_grid(_G4, _GRID4), "cap"),
    ("l1_bound-cap", lambda: cf_l1_bound(_G4), "cap"),
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
    with pytest.raises(ValidationError, match=message):
        call()


class TestContractAxis:
    def test_long_axis_matches_direct(self):
        # a vector splits k = q*K + s (20000 is not a multiple of K); the
        # regrouped sum (a matrix-vector product onto one point, a batched
        # chirp-z onto several) and the blocked phase matrix of a batched
        # axis must agree with the plain phase matrix on uniform z axes,
        # also off-centre
        from cfmoll.mollify import _contract_axis

        rng = np.random.default_rng(0)
        m = 20000
        y = np.linspace(-30.0, 30.0, m)
        cases = [((m,), 1), ((m,), 2), ((m,), 1201), ((m, 7), 1), ((m, 7), 3)]
        for (shape, n_z), window in itertools.product(cases, [(-3.0, 3.0), (-2.5, 9.5)]):
            z = np.linspace(*window, n_z) if n_z > 1 else np.array([window[1]])
            t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            fact = _contract_axis(t, y, z)
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
        t, abs_sum = mo._weighted_slab(cf, plan, 0.0, 0, len(y))
        return y, t, abs_sum

    def test_long_laplace_axis_matches_extended_precision(self, laplace_axis):
        # at |y| = 65536, y[1] - y[0] loses about 5 digits of the node
        # spacing; the grid and the one-point contractions must both match
        # a long-double sum
        y, t, abs_sum = laplace_axis
        z = np.linspace(-3.7, 8.3, 1201)
        picks = [0, 517, 1200]
        grid = mo._contract_axis(t, y, z)[picks]
        points = [mo._contract_axis(t, y, z[i : i + 1])[0] for i in picks]
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
        whole = mo._contract_axis(t, y, z)
        monkeypatch.setattr(mo, "_PHASE_BLOCK", 1 << 16)
        capped = None

        def run():
            nonlocal capped
            capped = mo._contract_axis(t, y, z)

        peak = traced_peak_mb(run)
        assert np.max(np.abs(capped - whole)) <= 1e-13 * np.max(np.abs(whole))
        # a few 1 MiB temporaries and one padded row, about 4 MB; a padded
        # copy of the 21 MB input took 25 MB (86 MB uncapped)
        assert peak < 8.0

    @pytest.mark.parametrize("m", [16, 652])
    @pytest.mark.parametrize("n_z", [1, 2, 3, 513, 2049])
    @pytest.mark.parametrize("window", [(-8.0, 8.0), (-9.5, 10.5), (3.0, 40.0)])
    def test_chirp_matches_phase_matrix(self, m, n_z, window):
        # a vector takes the row split, its inner sums a matrix-vector
        # product onto one point and the chirp-z form onto more; both must
        # agree with the explicit phase matrix, also on off-centre windows
        from cfmoll.mollify import _contract_axis

        rng = np.random.default_rng(m + n_z)
        y = np.linspace(-17.3, 17.3, m)
        z = np.linspace(*window, n_z)
        t = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        direct = np.tensordot(t, np.exp(-1j * np.outer(z, y)), axes=([0], [1]))
        chirp = _contract_axis(t, y, z)
        assert chirp.shape == direct.shape
        assert np.max(np.abs(chirp - direct)) <= 1e-12 * np.max(np.abs(direct))

    @pytest.mark.parametrize("batch, n_z", [(7, 3), (21, 64)])
    def test_batched_axis_takes_direct_path(self, batch, n_z):
        # batched axes of 2-d/3-d lattices run the blocked phase matrix,
        # also when the z axis outnumbers the batch (a 2-d grid whose first
        # axis a worker split into 21-point chunks)
        from cfmoll.mollify import _contract_axis

        rng = np.random.default_rng(1)
        m = 652
        y = np.linspace(-17.3, 17.3, m)
        z = np.linspace(-9.5, 10.5, n_z)
        t = rng.standard_normal((m, batch)) + 1j * rng.standard_normal((m, batch))
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
    # 48^3 lattice in 8 slabs of 6 rows; non-square grid
    spec = cm.Gaussian(
        mean=[0.0, 0.3, -0.2],
        cov=[[1.0, 0.5, 0.2], [0.5, 1.0, -0.3], [0.2, -0.3, 0.8]],
    )
    params = MollificationParams(sigma=1.0, truncation_radius=6.0, nodes_per_axis=48)
    grid = cm.Grid(axes=((-6.0, 6.0, 13), (-6.0, 6.5, 14), (-6.5, 6.0, 15)))
    return make_cf(spec), params, grid


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
            params = MollificationParams.for_dimension(2, sigma=sigma)
            z_axes = [np.linspace(-5.0, 5.0, 64), np.linspace(-4.0, 5.0, 48)]
        else:
            cf, params, grid = _small_3d_case()
            sigma = 1.0
            z_axes = [grid.axis_points(j) for j in range(3)]
        plan = mo._plan(cf, sigma, params)
        assert len(mo._slabs(plan.shape)) > 1
        vals, mass = mo._scaled_transform(cf, plan, sigma, params.tail_tol, z_axes)
        monkeypatch.setattr(mo, "_SLAB_NODES", plan.total_nodes)
        monkeypatch.setattr(mo, "_MIN_SLABS", 1)
        assert mo._slabs(plan.shape) == [(0, plan.shape[0])]
        whole, whole_mass = mo._scaled_transform(cf, plan, sigma, params.tail_tol, z_axes)
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
        params = MollificationParams(sigma=0.5, truncation_radius=11.6, nodes_per_axis=96)
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
        assert mo._plan(cf, 0.5, MollificationParams.for_dimension(3)).shape == (238,) * 3
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
        plan = mo._plan(cf, 0.0, MollificationParams.for_dimension(2))
        assert len(mo._slabs(plan.shape)) > 1
        assert bounds == [cf_l1_bound(cf)]


def _one_shot_weights(cf, plan, sigma, lo, hi):
    """The slab's W from one meshgrid and one chi call: the reference for
    the blocked ``_weight_tensor``."""
    nodes = (plan.nodes[0][lo:hi],) + plan.nodes[1:]
    mesh = np.meshgrid(*nodes, indexing="ij")
    w = cf.batch_eval(np.stack([m.reshape(-1) for m in mesh], axis=-1)).reshape(mesh[0].shape)
    for j in range(plan.d):
        f = plan.weights[j] * np.exp(-0.5 * sigma * sigma * plan.nodes[j] ** 2)
        w = w * (f[lo:hi] if j == 0 else f).reshape([-1 if a == j else 1 for a in range(plan.d)])
    return w


def _plan(*ms):
    """A hand-built plan; an axis of one node sits at 0.3 with weight 1."""
    rules = [mo._axis_rule(4.0, m) if m > 1 else (np.array([0.3]), np.array([1.0])) for m in ms]
    return mo.QuadPlan(
        radii=(4.0,) * len(ms),
        nodes=tuple(y for y, _ in rules),
        weights=tuple(w for _, w in rules),
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
        ref = _one_shot_weights(cf, plan, 0.5, lo, hi)
        monkeypatch.setattr(mo, "_EVAL_BLOCK", block)
        w = mo._weight_tensor(cf, plan, 0.5, lo, hi)
        assert w.shape == ref.shape
        assert np.max(np.abs(w - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_block_size_leaves_values_alone(self, d, monkeypatch):
        # grid and pointwise (one-point z axes) results in small blocks and
        # in one block per slab
        cf = self.CFS[d]
        params = MollificationParams(sigma=0.8, truncation_radius=6.0, nodes_per_axis=48)
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

    def test_pool_never_exceeds_the_slab_count(self, pool_sizes):
        cf, params, grid = _small_3d_case()
        n_slabs = len(mo._slabs(mo._plan(cf, 1.0, params).shape))
        for workers in (3, n_slabs + 4):
            mollified_density_grid(cf, 1.0, grid, params, workers=workers)
        assert pool_sizes == [3, n_slabs]

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
