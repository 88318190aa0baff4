import math

import numpy as np
import pytest
from scipy.integrate import quad

import cfmoll as cm
from cfmoll import ValidationError, convolve, gaussian_mollify_cf, make_cf


def quad_cf_oracle(density, lo, hi, t):
    """Independent 1-d quadrature of integral density(y) e^{ity} dy."""
    re, _ = quad(lambda y: density(y) * math.cos(t * y), lo, hi, limit=200)
    im, _ = quad(lambda y: density(y) * math.sin(t * y), lo, hi, limit=200)
    return complex(re, im)


def test_gaussian_at_zero_is_one(std_gaussian):
    assert make_cf(std_gaussian)(0.0) == 1.0 + 0.0j


def test_point_mass_at_pi():
    cf = make_cf(cm.PointMass(location=[1.0]))
    assert cf(math.pi) == pytest.approx(-1.0 + 0.0j, abs=1e-15)


def test_uniform_box_matches_quadrature_oracle():
    cf = make_cf(cm.UniformBox(lo=[-1.0], hi=[1.0]))
    # frozen from the oracle: 0.5 * integral_{-1}^{1} e^{i pi y} dy = sin(pi)/pi ~ 0
    oracle = quad_cf_oracle(lambda y: 0.5, -1.0, 1.0, math.pi)
    assert abs(oracle) < 1e-12
    assert abs(cf(math.pi) - oracle) < 1e-12
    for t in (0.3, 1.7, 4.0):
        assert cf(t) == pytest.approx(quad_cf_oracle(lambda y: 0.5, -1, 1, t), abs=1e-10)


def test_uniform_box_taylor_branch_is_continuous():
    cf = make_cf(cm.UniformBox(lo=[-1.0], hi=[1.0]))
    assert cf(0.0) == 1.0 + 0.0j
    # just below and above the branch switch at |t (hi - lo)| = 1e-8
    below, above = cf(4.9e-9), cf(5.1e-9)
    assert abs(below - above) < 1e-15
    assert abs(below - 1.0) < 1e-16


@pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (-1.0, 2.0), (-1e-3, 1e-3), (-500.0, 700.0)])
def test_uniform_box_matches_the_taylor_switch_formula(lo, hi):
    # chi is bit-equal to the former form, which took 1 - x^2/6 for
    # |t (hi - lo)| < 1e-8: at t = 0, at subnormal t and on both sides of
    # that switch
    half, width, center = 0.5 * (hi - lo), hi - lo, 0.5 * (lo + hi)
    edge = 1e-8 / width
    t = np.array([0.0, 5e-324, 1e-310, 2.2e-308, 1e-300, 1e-20])
    t = np.concatenate([t, edge * np.array([0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0, 1e4])])
    t = np.concatenate([t, np.nextafter(edge, 0.0), np.nextafter(edge, 1.0)], axis=None)
    t = np.concatenate([t, -t])
    x = t * half
    small = np.abs(t * width) < 1e-8
    safe = np.where(small, 1.0, x)
    old = np.where(small, 1.0 - x * x / 6.0, np.sin(safe) / safe)
    if center != 0.0:
        old = old * np.exp(1j * t * center)
    vals = make_cf(cm.UniformBox(lo=[lo], hi=[hi])).batch_eval(t[:, None])
    want = np.ones(len(t), dtype=complex) * old
    assert np.asarray(vals, dtype=complex).tobytes() == want.tobytes()


def test_laplace_closed_form():
    cf = make_cf(cm.Laplace1D(scale=2.0))
    for t in (0.0, 0.5, -3.0):
        assert cf(t) == pytest.approx(1.0 / (1.0 + 4.0 * t * t), abs=1e-15)


def test_empirical_cf_row():
    cf = make_cf(cm.Empirical(points=[[-1.0], [1.0]], weights=[0.5, 0.5]))
    t = np.linspace(-4, 4, 17)
    assert np.allclose(cf(t), np.cos(t), atol=1e-15)


def test_empirical_chi_zero_exact_for_nondyadic_weights():
    # renormalized weights may not float-sum to 1; chi(0) == 1 must still
    # hold exactly
    rng = np.random.default_rng(3)
    w = rng.uniform(0.1, 1.0, 33)
    spec = cm.Empirical(points=rng.uniform(-2, 2, (33, 1)), weights=w / w.sum())
    assert make_cf(spec).batch_eval(np.zeros((1, 1)))[0] == 1.0 + 0.0j


def test_affine_map_cf():
    # 2X + 1 for X ~ Laplace(1): chi(t) = e^{it} / (1 + 4 t^2)
    spec = cm.AffineMap(matrix=[[2.0]], shift=[1.0], inner=cm.Laplace1D(scale=1.0))
    cf = make_cf(spec)
    for t in (0.2, -1.3):
        expected = np.exp(1j * t) / (1.0 + 4.0 * t * t)
        assert cf(t) == pytest.approx(expected, abs=1e-15)


def test_product_cf_factors():
    spec = cm.Product(factors=(cm.Laplace1D(scale=1.0), cm.Laplace1D(scale=2.0)))
    cf = make_cf(spec)
    val = cf([1.0, 0.5])
    assert val == pytest.approx((1 / 2) * (1 / 2), abs=1e-15)


def test_iid_sum_cf_closed_form(rademacher):
    cf = make_cf(cm.StandardizedIIDSum(base=rademacher, n=4))
    t = 1.3
    assert cf(t) == pytest.approx(np.cos(t / 2.0) ** 4, abs=1e-14)


def test_convolve_point_mass_identity(std_gaussian):
    cf = make_cf(std_gaussian)
    ident = make_cf(cm.PointMass(location=[0.0]))
    both = convolve(cf, ident)
    t = np.linspace(-5, 5, 41)
    assert np.array_equal(both(t), cf(t) * ident(t))
    assert np.allclose(both(t), cf(t), atol=0)


def test_convolve_gaussians_adds_exponents(std_gaussian):
    sigma2 = 0.7
    other = make_cf(cm.Gaussian(mean=[0.0], cov=[[sigma2]]))
    both = convolve(make_cf(std_gaussian), other)
    for t in (0.0, 1.0, -2.5):
        assert both(t) == pytest.approx(np.exp(-0.5 * (1 + sigma2) * t * t), rel=1e-14)


def test_convolve_uniforms_matches_triangular_oracle():
    cf = convolve(
        make_cf(cm.UniformBox(lo=[-1.0], hi=[1.0])),
        make_cf(cm.UniformBox(lo=[-1.0], hi=[1.0])),
    )
    tri = lambda y: (2.0 - abs(y)) / 4.0
    assert abs(cf(math.pi) - quad_cf_oracle(tri, -2, 2, math.pi)) < 1e-12
    for t in (0.7, 2.2):
        assert cf(t) == pytest.approx(quad_cf_oracle(tri, -2, 2, t), abs=1e-9)


def test_convolve_dimension_mismatch(std_gaussian):
    with pytest.raises(ValidationError):
        convolve(make_cf(std_gaussian), make_cf(cm.PointMass(location=[0.0, 0.0])))


def test_convolve_commutes_and_associates(spec_zoo):
    rng = np.random.default_rng(3)
    one_d = [make_cf(s) for s in spec_zoo if s.dim == 1]
    a, b, c = one_d[0], one_d[2], one_d[4]
    t = rng.uniform(-6, 6, size=32)
    assert np.max(np.abs(convolve(a, b)(t) - convolve(b, a)(t))) <= 1e-14
    lhs = convolve(convolve(a, b), c)(t)
    rhs = convolve(a, convolve(b, c))(t)
    assert np.max(np.abs(lhs - rhs)) <= 1e-14


def test_mollify_point_mass_is_gaussian_factor():
    cf = gaussian_mollify_cf(make_cf(cm.PointMass(location=[0.0])), 1.0)
    t = np.linspace(-4, 4, 33)
    assert np.allclose(cf(t), np.exp(-0.5 * t * t), atol=1e-15)


def test_mollify_semigroup_exact(spec_zoo):
    rng = np.random.default_rng(9)
    for spec in spec_zoo[:6]:
        cf = make_cf(spec)
        twice = gaussian_mollify_cf(gaussian_mollify_cf(cf, 0.3), 0.4)
        once = gaussian_mollify_cf(cf, 0.5)
        t = rng.uniform(-6, 6, size=(24, cf.d))
        assert np.max(np.abs(twice.batch_eval(t) - once.batch_eval(t))) <= 1e-14


def test_mollified_gaussian_value():
    cf = gaussian_mollify_cf(make_cf(cm.Gaussian(mean=[0.0], cov=[[1.0]])), 0.5)
    # frozen: exp(-0.625) for sigma = 0.5 at t = 1
    assert cf(1.0) == pytest.approx(0.53526142851899024 + 0j, abs=1e-15)


def test_mollify_rejects_bad_sigma(std_gaussian):
    cf = make_cf(std_gaussian)
    for bad in (0.0, -1.0, np.nan):
        with pytest.raises(ValidationError):
            gaussian_mollify_cf(cf, bad)


def test_cf_invariants_randomized(spec_zoo):
    rng = np.random.default_rng(20240)
    for spec in spec_zoo:
        cf = make_cf(spec)
        t = rng.uniform(-8.0, 8.0, size=(128, cf.d))
        vals = cf.batch_eval(t)
        assert np.max(np.abs(vals)) <= 1.0 + 1e-12
        assert np.max(np.abs(cf.batch_eval(-t) - np.conj(vals))) <= 1e-12
        assert cf.batch_eval(np.zeros((1, cf.d)))[0] == 1.0 + 0.0j


def test_symmetric_iid_sum_is_real(rademacher):
    rng = np.random.default_rng(5)
    for n in (1, 4, 25, 64):
        cf = make_cf(cm.StandardizedIIDSum(base=rademacher, n=n))
        t = rng.uniform(-8, 8, size=64)
        assert np.max(np.abs(cf(t).imag)) <= 1e-12


def test_integrability_flags(std_gaussian, rademacher, spec_zoo):
    assert make_cf(std_gaussian).integrable == "yes"
    assert make_cf(cm.Laplace1D(scale=1.0)).integrable == "yes"
    assert make_cf(cm.PointMass(location=[0.0])).integrable == "no"
    assert make_cf(rademacher).integrable == "no"
    assert make_cf(cm.UniformBox(lo=[0.0], hi=[1.0])).integrable == "unknown"
    assert make_cf(cm.StandardizedIIDSum(base=rademacher, n=2)).integrable == "unknown"
    # singular Gaussian is only PSD: no closed-form guarantee
    singular = cm.Gaussian(mean=[0.0, 0.0], cov=[[1.0, 1.0], [1.0, 1.0]])
    assert make_cf(singular).integrable == "unknown"
    # convolving with an integrable factor dominates
    assert convolve(make_cf(rademacher), make_cf(std_gaussian)).integrable == "yes"
    assert convolve(make_cf(rademacher), make_cf(rademacher)).integrable == "unknown"
    conv_spec = cm.Convolution(parts=(rademacher, std_gaussian))
    assert make_cf(conv_spec).integrable == "yes"
    assert gaussian_mollify_cf(make_cf(rademacher), 0.1).integrable == "yes"
    laplace, uniform = cm.Laplace1D(scale=1.0), cm.UniformBox(lo=[-1.0], hi=[1.0])
    # Product: "yes" iff every factor is (Fubini)
    assert make_cf(cm.Product(factors=(std_gaussian, laplace))).integrable == "yes"
    assert make_cf(cm.Product(factors=(laplace, uniform))).integrable == "unknown"
    assert make_cf(cm.Product(factors=(std_gaussian, rademacher))).integrable == "unknown"
    # StandardizedIIDSum: |chi(t/sqrt(n))|^n <= |chi(t/sqrt(n))|
    assert make_cf(cm.StandardizedIIDSum(base=laplace, n=3)).integrable == "yes"
    assert make_cf(cm.StandardizedIIDSum(base=uniform, n=3)).integrable == "unknown"
    # AffineMap: a square A of full rank keeps the inner flag
    gauss2 = cm.Gaussian(mean=[0.0, 0.0], cov=[[1.0, 0.0], [0.0, 1.0]])
    rotate = [[1.0, 2.0], [0.5, -1.0]]
    assert make_cf(cm.AffineMap(matrix=[[2.0]], shift=[0.5], inner=laplace)).integrable == "yes"
    assert make_cf(cm.AffineMap(matrix=rotate, shift=[0.0, 1.0], inner=gauss2)).integrable == "yes"
    point = cm.PointMass(location=[1.0, -1.0])
    assert make_cf(cm.AffineMap(matrix=rotate, shift=[0.0, 0.0], inner=point)).integrable == "no"
    rank_one = cm.AffineMap(matrix=[[1.0, 2.0], [0.5, 1.0]], shift=[0.0, 0.0], inner=gauss2)
    assert make_cf(rank_one).integrable == "unknown"
    # the zoo's 2x1 map, its Rademacher sum and its Product keep "unknown"
    flags = [make_cf(spec).integrable for spec in spec_zoo]
    assert flags == ["yes", "yes", "no", "no", "unknown", "yes", "no", "yes",
                     "unknown", "unknown", "unknown", "no"]


def test_call_shapes(std_gaussian):
    cf = make_cf(std_gaussian)
    assert isinstance(cf(1.0), complex)
    assert cf(np.zeros(5)).shape == (5,)
    cf2 = make_cf(cm.PointMass(location=[0.0, 0.0]))
    assert isinstance(cf2([0.0, 0.0]), complex)
    assert cf2(np.zeros((7, 2))).shape == (7,)
    with pytest.raises(ValidationError):
        cf2(np.zeros((7, 3)))


@pytest.mark.parametrize("mean", [[0.0, 0.0, 0.0], [0.4, 0.0, -1.3]], ids=["zero-mean", "mean"])
def test_gaussian_cf_matches_complex_exp(mean):
    # the real modulus times cos/sin of the phase is the complex exp of
    # i<a,t> - <t,Ct>/2 up to rounding; a zero mean gives real values
    cov = np.array([[1.0, 0.3, 0.0], [0.3, 2.0, -0.4], [0.0, -0.4, 0.5]])
    t = np.random.default_rng(4).uniform(-5.0, 5.0, (4096, 3))
    got = make_cf(cm.Gaussian(mean=mean, cov=cov)).batch_eval(t)
    quad = np.einsum("ni,ni->n", t @ cov, t)  # the same quadratic form
    closed = np.exp(1j * (t @ np.array(mean)) - 0.5 * quad)
    assert np.max(np.abs(got - closed) / np.abs(closed)) <= 4 * np.finfo(float).eps
    if not any(mean):
        assert np.all(got.imag == 0.0)


@pytest.mark.parametrize(
    "lo, hi",
    [([-1.0, -0.5], [1.0, 0.5]), ([-1.0, 0.0], [2.0, 0.5]), ([0.5, -2.0], [1.5, 2.0])],
    ids=["centred", "off-centre", "mixed"],
)
def test_uniform_box_cf_matches_complex_exp(lo, hi):
    lo, hi = np.array(lo), np.array(hi)
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    t = np.random.default_rng(6).uniform(-6.0, 6.0, (2048, 2))
    got = make_cf(cm.UniformBox(lo=lo, hi=hi)).batch_eval(t)
    closed = np.prod(np.sin(t * h) / (t * h) * np.exp(1j * t * c), axis=1)
    assert np.max(np.abs(got - closed)) <= 4 * np.finfo(float).eps
    assert np.all(got.imag == 0.0) == (not c.any())


@pytest.mark.parametrize("shift", [[0.0, 0.0], [1.0, -0.5]], ids=["no-shift", "shift"])
def test_affine_map_cf_shift(shift):
    matrix = np.array([[0.5], [1.0]])
    spec = cm.AffineMap(matrix=matrix, shift=shift, inner=cm.Laplace1D(scale=1.0))
    t = np.random.default_rng(8).uniform(-4.0, 4.0, (256, 2))
    got = make_cf(spec).batch_eval(t)
    closed = np.exp(1j * (t @ np.array(shift))) / (1.0 + (t @ matrix)[:, 0] ** 2)
    assert np.max(np.abs(got - closed)) <= 4 * np.finfo(float).eps
