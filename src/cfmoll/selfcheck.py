"""Closed-form invariant suite behind the ``selfcheck`` CLI command.

Every check compares library output against an independent closed form or
an exact algebraic identity, so the suite runs with no fixture files and
in a few seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specs as sp
from .charfn import gaussian_mollify_cf, make_cf
from .converge import gaussian_tail_prob, l1_distance, mass_in_box, tv_distance
from .grids import DensityField, Grid, MollificationParams
from .mollify import invert_density_at, mollified_density_at, mollified_density_grid
from .montecarlo import empirical_cf, sample


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _empirical_2d() -> sp.Empirical:
    """Four atoms in the plane: its lattice blocks take ``atom_sum``'s
    lattice-row branch."""
    return sp.Empirical(
        points=[[-1.0, 0.5], [0.3, -0.8], [1.2, 1.1], [0.0, 0.0]],
        weights=[0.2, 0.3, 0.4, 0.1],
    )


def _spec_zoo() -> list[sp.DistributionSpec]:
    """One spec per constructor (two for Gaussian, PointMass and Empirical:
    1-d and 2-d), all with unit-scale parameters; the test suite uses the
    same list."""
    rademacher = sp.Empirical(points=[[-1.0], [1.0]], weights=[0.5, 0.5])
    return [
        sp.Gaussian(mean=[0.3], cov=[[1.2]]),
        sp.Gaussian(mean=[0.0, -1.0], cov=[[1.0, 0.4], [0.4, 2.0]]),
        sp.PointMass(location=[0.7]),
        sp.PointMass(location=[1.0, -2.0]),
        sp.UniformBox(lo=[-1.0], hi=[2.0]),
        sp.Laplace1D(scale=0.8),
        sp.Empirical(points=[[-1.0], [0.5], [2.0]], weights=[0.25, 0.5, 0.25]),
        sp.Convolution(parts=(sp.UniformBox(lo=[-1.0], hi=[1.0]), sp.Laplace1D(scale=1.0))),
        sp.AffineMap(matrix=[[0.5], [1.0]], shift=[1.0, -1.0], inner=sp.Laplace1D(scale=1.0)),
        sp.StandardizedIIDSum(base=rademacher, n=9),
        sp.Product(factors=(sp.Laplace1D(scale=1.0), sp.UniformBox(lo=[-1.0], hi=[1.0]))),
        _empirical_2d(),
    ]


def check_cf_invariants(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for spec in _spec_zoo():
        cf = make_cf(spec)
        t = rng.uniform(-6.0, 6.0, size=(64, cf.d))
        vals = cf.batch_eval(t)
        neg = cf.batch_eval(-t)
        worst = max(worst, float(np.max(np.abs(vals)) - 1.0))
        worst = max(worst, float(np.max(np.abs(neg - np.conj(vals)))))
        at_zero = cf.batch_eval(np.zeros((1, cf.d)))[0]
        if at_zero != 1.0 + 0.0j:
            return CheckResult("cf_invariants", False, f"chi(0) = {at_zero!r} for {spec}")
    return CheckResult("cf_invariants", worst <= 1e-12, f"worst residual {worst:.3g}")


def check_empirical_cf(seed: int) -> CheckResult:
    """A seeded sample's empirical CF on a uniform probe axis against the
    mean of cos and sin of every phase, and against the closed-form CF
    within 5 / sqrt(n)."""
    spec = sp.Gaussian(mean=[0.3], cov=[[1.2]])
    n = 20_000
    batch = sample(spec, n, seed)
    t = np.linspace(-4.0, 4.0, 65)
    ecf = empirical_cf(batch, t)
    arg = np.outer(t, batch.points[:, 0])
    direct = np.cos(arg).mean(axis=1) + 1j * np.sin(arg).mean(axis=1)
    kernel = float(np.max(np.abs(ecf - direct)))
    sampling = float(np.max(np.abs(ecf - make_cf(spec)(t))))
    ok = kernel <= 1e-12 and sampling <= 5.0 / math.sqrt(n)
    return CheckResult(
        "empirical_cf", ok, f"max |ecf - direct| {kernel:.3g}, max |ecf - cf| {sampling:.3g}"
    )


def check_sum_law(seed: int) -> CheckResult:
    """The zoo's Rademacher-9 sum: its exact sum law against the atoms
    (2c - 9) / 3 and the binomial probabilities C(9, c) / 2^9, and the
    empirical CF of a seeded sample drawn from that law against the
    closed-form CF within 5 / sqrt(n)."""
    spec = next(s for s in _spec_zoo() if isinstance(s, sp.StandardizedIIDSum))
    law = spec.sum_law()
    c = np.arange(10)
    if not np.array_equal(law.points[:, 0], (2.0 * c - 9.0) / 3.0):
        return CheckResult("sum_law", False, f"atoms {law.points[:, 0]} are not (2c - 9) / 3")
    binomial = np.array([math.comb(9, int(j)) for j in c]) / 2.0**9
    weights = float(np.max(np.abs(law.weights / binomial - 1.0)))
    n = 100_000
    t = np.linspace(-4.0, 4.0, 65)
    sampling = float(np.max(np.abs(empirical_cf(sample(spec, n, seed), t) - make_cf(spec)(t))))
    ok = weights <= 1e-14 and sampling <= 5.0 / math.sqrt(n)
    return CheckResult(
        "sum_law", ok, f"max weight error {weights:.3g}, max |ecf - cf| {sampling:.3g}"
    )


def check_mollify_semigroup(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    cf = make_cf(sp.UniformBox(lo=[-1.0], hi=[1.0]))
    twice = gaussian_mollify_cf(gaussian_mollify_cf(cf, 0.6), 0.8)
    once = gaussian_mollify_cf(cf, math.hypot(0.6, 0.8))
    t = rng.uniform(-8.0, 8.0, size=(128, 1))
    err = float(np.max(np.abs(twice.batch_eval(t) - once.batch_eval(t))))
    return CheckResult("mollify_semigroup", err <= 1e-14, f"max |diff| {err:.3g}")


def check_gaussian_closed_form(_: int) -> CheckResult:
    grid = Grid(axes=((-8.0, 8.0, 512),))
    field = mollified_density_grid(make_cf(sp.Gaussian(mean=[0.0], cov=[[1.0]])), 0.5, grid)
    z = grid.axis_points(0)
    var = 1.25
    exact = np.exp(-0.5 * z * z / var) / math.sqrt(2.0 * math.pi * var)
    err = float(np.max(np.abs(field.values - exact)))
    return CheckResult("gaussian_closed_form", err <= 1e-6, f"sup error {err:.3g}")


def check_empirical_mixture(_: int) -> CheckResult:
    """A 2-d ``Empirical`` law smoothed at sigma 0.5, on a grid and at one
    point, against its closed form: the Gaussian mixture
    sum_j w_j phi_sigma(z - x_j)."""
    spec, sigma = _empirical_2d(), 0.5
    cf = make_cf(spec)
    grid = Grid(axes=((-4.0, 4.0, 33), (-4.0, 4.0, 33)))
    field = mollified_density_grid(cf, sigma, grid)
    z = grid.points()
    sq = ((z[:, None, :] - spec.points[None, :, :]) ** 2).sum(axis=2)
    exact = np.exp(-0.5 * sq / sigma**2) @ spec.weights / (2.0 * math.pi * sigma**2)
    err = float(np.max(np.abs(field.values - exact)))
    point = abs(mollified_density_at(cf, sigma, z[500]) - exact[500])
    ok = err <= 1e-6 and point <= 1e-6
    return CheckResult("empirical_mixture", ok, f"sup error {err:.3g}, point error {point:.3g}")


def check_inversion_gaussian(_: int) -> CheckResult:
    val = invert_density_at(make_cf(sp.Gaussian(mean=[0.0], cov=[[1.0]])), [0.0])
    err = abs(val - 1.0 / math.sqrt(2.0 * math.pi))
    return CheckResult("inversion_gaussian", err <= 1e-8, f"error at 0: {err:.3g}")


def check_cross_formula(_: int) -> CheckResult:
    params = MollificationParams(tail_tol=1e-12)
    worst = 0.0
    for spec, sigma, z in [
        (sp.UniformBox(lo=[-1.0], hi=[1.0]), 0.7, 0.3),
        (sp.Laplace1D(scale=1.0), 0.5, -0.8),
        (sp.Empirical(points=[[-1.0], [1.0]], weights=[0.5, 0.5]), 1.0, 0.1),
    ]:
        cf = make_cf(spec)
        a = mollified_density_at(cf, sigma, [z], params)
        b = invert_density_at(gaussian_mollify_cf(cf, sigma), [z], params)
        worst = max(worst, abs(a - b))
    return CheckResult("cross_formula", worst <= 1e-9, f"max |diff| {worst:.3g}")


def check_l1_metric(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    grid = Grid(axes=((-2.0, 2.0, 65),))
    fields = []
    for _ in range(3):
        raw = rng.uniform(0.0, 1.0, grid.size)
        fields.append(DensityField(grid, raw / (raw.sum() * grid.cell_volume)))
    a, b, c = fields
    sym = abs(l1_distance(a, b) - l1_distance(b, a))
    tri = l1_distance(a, c) - (l1_distance(a, b) + l1_distance(b, c))
    half = abs(tv_distance(a, b) - 0.5 * l1_distance(a, b))
    ok = sym == 0.0 and tri <= 1e-12 and half == 0.0 and l1_distance(a, a) == 0.0
    return CheckResult("l1_metric", ok, f"sym {sym:.3g}, triangle slack {tri:.3g}")


def check_tail_prob(_: int) -> CheckResult:
    vals = [gaussian_tail_prob(k, 0.5, 1) for k in range(1, 9)]
    decreasing = all(b < a for a, b in zip(vals, vals[1:]))
    quantile = 1.95996
    e1 = abs(gaussian_tail_prob(1, quantile, 1) - 0.05)
    e2 = abs(gaussian_tail_prob(1, quantile, 2) - 0.0975)
    ok = decreasing and e1 < 1e-5 and e2 < 1e-5
    return CheckResult("tail_prob", ok, f"errors {e1:.2g}, {e2:.2g}")


def check_mass_in_box(_: int) -> CheckResult:
    grid = Grid(axes=((-8.0, 8.0, 257),))
    field = mollified_density_grid(make_cf(sp.PointMass(location=[0.0])), 1.0, grid)
    full = mass_in_box(field, 8.0)
    exact_total = field.riemann_sum
    inner = mass_in_box(field, 1.96)
    expected = math.erf(1.96 / math.sqrt(2.0))
    ok = full == exact_total and abs(inner - expected) < 0.01
    return CheckResult("mass_in_box", ok, f"P(|z|<=1.96) = {inner:.4f}")


def check_normalization(_: int) -> CheckResult:
    grid = Grid(axes=((-8.0, 8.0, 512),))
    worst = 0.0
    for spec in [sp.Gaussian(mean=[0.0], cov=[[1.0]]), sp.UniformBox(lo=[-1.0], hi=[1.0])]:
        field = mollified_density_grid(make_cf(spec), 0.5, grid)
        worst = max(worst, abs(field.riemann_sum - 1.0))
    return CheckResult("normalization", worst <= 1e-3, f"max |mass - 1| {worst:.3g}")


ALL_CHECKS = [
    check_cf_invariants,
    check_empirical_cf,
    check_sum_law,
    check_mollify_semigroup,
    check_gaussian_closed_form,
    check_empirical_mixture,
    check_inversion_gaussian,
    check_cross_formula,
    check_l1_metric,
    check_tail_prob,
    check_mass_in_box,
    check_normalization,
]


def run_selfcheck(seed: int = 20240) -> list[CheckResult]:
    return [check(seed) for check in ALL_CHECKS]
