import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cfmoll as cm
import cfmoll.mollify as mo
import cfmoll.specs as sp
from cfmoll import DistributionSpec, ValidationError, spec_from_dict, spec_to_dict
from cfmoll.charfn import CharFn, LatticeRows
from cfmoll.specs import SPEC_TYPES
from tests.conftest import gaussian_density


def test_round_trip_every_constructor(spec_zoo):
    for spec in spec_zoo:
        again = spec_from_dict(spec_to_dict(spec))
        assert spec_to_dict(again) == spec_to_dict(spec)
        assert again.dim == spec.dim


def test_file_round_trip(tmp_path, rademacher):
    spec = cm.StandardizedIIDSum(base=rademacher, n=4)
    path = tmp_path / "spec.json"
    cm.save_spec(spec, path)
    loaded = cm.load_spec(path)
    assert spec_to_dict(loaded) == spec_to_dict(spec)


def test_canonical_schema_shape():
    d = spec_to_dict(cm.Gaussian(mean=[0.0], cov=[[1.0]]))
    assert d == {"type": "gaussian", "mean": [0.0], "cov": [[1.0]]}
    d = spec_to_dict(cm.Convolution(parts=(cm.Laplace1D(scale=1.0),)))
    assert d["type"] == "convolution" and isinstance(d["parts"], list)


def test_load_rejects_garbage(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ValidationError):
        cm.load_spec(p)
    with pytest.raises(ValidationError):
        cm.load_spec(tmp_path / "missing.json")
    with pytest.raises(ValidationError):
        spec_from_dict({"type": "cauchy"})
    with pytest.raises(ValidationError):
        spec_from_dict({"type": "gaussian", "mean": [0.0]})


def test_gaussian_validation():
    with pytest.raises(ValidationError):
        cm.Gaussian(mean=[0.0, 0.0], cov=[[1.0, 0.5], [0.1, 1.0]])  # asymmetric
    with pytest.raises(ValidationError):
        cm.Gaussian(mean=[0.0], cov=[[-1.0]])  # negative variance
    with pytest.raises(ValidationError):
        cm.Gaussian(mean=[0.0, 0.0], cov=[[1.0]])  # shape mismatch
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError, match="must be finite"):
            cm.Gaussian(mean=[0.0, 0.0], cov=[[1.0, bad], [bad, 1.0]])
    # PSD with a zero eigenvalue is allowed
    cm.Gaussian(mean=[0.0, 0.0], cov=[[1.0, 1.0], [1.0, 1.0]])


def test_empirical_validation():
    with pytest.raises(ValidationError):
        cm.Empirical(points=[[0.0], [1.0]], weights=[0.6, 0.5])  # sums to 1.1
    with pytest.raises(ValidationError):
        cm.Empirical(points=[[0.0], [1.0]], weights=[1.5, -0.5])  # negative
    with pytest.raises(ValidationError):
        cm.Empirical(points=[[0.0], [1.0]], weights=[1.0])  # length mismatch
    spec = cm.Empirical(points=[[0.0], [1.0], [2.0]], weights=[1 / 3, 1 / 3, 1 / 3])
    assert spec.weights.sum() == pytest.approx(1.0, abs=1e-15)


def test_uniform_box_validation():
    with pytest.raises(ValidationError):
        cm.UniformBox(lo=[0.0], hi=[0.0])
    with pytest.raises(ValidationError):
        cm.UniformBox(lo=[0.0, 0.0], hi=[1.0])


def test_composite_validation(rademacher):
    with pytest.raises(ValidationError):
        cm.Convolution(parts=(cm.Laplace1D(scale=1.0), cm.PointMass(location=[0.0, 0.0])))
    with pytest.raises(ValidationError):
        cm.Convolution(parts=())
    with pytest.raises(ValidationError):
        cm.AffineMap(matrix=[[1.0, 0.0]], shift=[0.0], inner=cm.Laplace1D(scale=1.0))
    with pytest.raises(ValidationError):
        cm.StandardizedIIDSum(base=rademacher, n=0)
    with pytest.raises(ValidationError):
        cm.StandardizedIIDSum(base=cm.PointMass(location=[0.0, 0.0]), n=3)
    with pytest.raises(ValidationError):
        cm.Product(factors=(cm.PointMass(location=[0.0, 0.0]),))


def test_dimensions(spec_zoo):
    dims = [s.dim for s in spec_zoo]
    assert dims == [1, 2, 1, 2, 1, 1, 1, 1, 2, 1, 2, 2]


def test_nested_json_stays_json_serializable(spec_zoo):
    for spec in spec_zoo:
        json.dumps(spec_to_dict(spec))  # must not raise


def test_laplace_validation():
    with pytest.raises(ValidationError):
        cm.Laplace1D(scale=0.0)
    with pytest.raises(ValidationError):
        cm.Laplace1D(scale=np.nan)


def test_iid_sum_n_must_be_integral(rademacher):
    for n in (2.7, np.nan, np.inf, "4"):
        with pytest.raises(ValidationError, match="integer"):
            cm.StandardizedIIDSum(base=rademacher, n=n)
    base = spec_to_dict(rademacher)
    with pytest.raises(ValidationError, match="integer"):
        spec_from_dict({"type": "standardized_iid_sum", "base": base, "n": 2.7})
    spec = spec_from_dict({"type": "standardized_iid_sum", "base": base, "n": 4.0})
    assert spec.n == 4 and type(spec.n) is int
    assert spec_to_dict(spec)["n"] == 4


def test_registry_contract(spec_zoo):
    # the zoo holds every registered class, so each one is exercised below
    assert set(SPEC_TYPES.values()) == {type(s) for s in spec_zoo}
    for name, cls in SPEC_TYPES.items():
        assert cls.json_type == name
    seq = np.random.SeedSequence(5)
    for spec in spec_zoo:
        d = spec_to_dict(spec)
        assert d["type"] == spec.json_type
        assert spec_to_dict(spec_from_dict(json.loads(json.dumps(d)))) == d
        cf = spec.cf()
        assert cf.d == spec.dim
        assert cf.batch_eval(np.zeros((1, spec.dim)))[0] == 1.0 + 0.0j
        assert spec.draw(7, seq).shape == (7, spec.dim)
    with pytest.raises(TypeError, match="already taken"):

        class Again(DistributionSpec, type="gaussian"):
            pass

    assert SPEC_TYPES["gaussian"] is cm.Gaussian


@pytest.mark.parametrize(
    "bad",
    [
        {"type": ["gaussian"], "mean": [0.0], "cov": [[1.0]]},  # unhashable type
        {"type": {"name": "laplace"}, "scale": 1.0},
        {"mean": [0.0], "cov": [[1.0]]},  # no type
        {"type": "convolution", "parts": 5},
        {"type": "convolution", "parts": [{"type": "cauchy"}]},
        {"type": "affine_map", "matrix": [[1.0]], "shift": [0.0], "inner": {"type": "laplace"}},
        {"type": "product", "factors": {"type": "laplace", "scale": 1.0}},
        {"type": "gaussian", "mean": {"type": "laplace", "scale": 1.0}, "cov": [[1.0]]},
        {"type": "laplace", "scale": 10**400},  # beyond float range
        {"type": "standardized_iid_sum", "base": {"type": "laplace", "scale": 1.0}, "n": 10**400},
    ],
)
def test_hostile_dicts_raise_validation_error(bad):
    with pytest.raises(ValidationError):
        spec_from_dict(bad)


class TestAtomSum:
    """The chunked kernel behind ``Empirical.cf`` and ``empirical_cf``."""

    @staticmethod
    def _law(n=1000, d=2):
        # non-dyadic weights whose float sum is not 1.0
        rng = np.random.default_rng(7)
        w = rng.uniform(0.1, 1.0, n)
        return rng.uniform(-3.0, 3.0, (n, d)), w / w.sum()

    def test_one_at_zero_over_many_chunks(self, monkeypatch):
        pts, w = self._law()
        spec = cm.Empirical(points=pts, weights=w)
        # a running sum of the stored weights misses 1.0, so dividing by an
        # assumed 1 would not give chi(0) == 1
        assert np.cumsum(spec.weights)[-1] != 1.0
        cf = spec.cf()
        probes = np.vstack([np.zeros(2), np.random.default_rng(1).normal(size=(12, 2))])
        for cap in (1, 40, 100, sp.ATOM_BLOCK):  # 1 to 1000 atoms per chunk
            monkeypatch.setattr(sp, "ATOM_BLOCK", cap)
            assert cf(np.zeros(2)) == 1.0 + 0.0j
            assert cf(probes)[0] == 1.0 + 0.0j

    def test_chunked_matches_one_chunk(self, monkeypatch):
        # chunking reorders the sum over the atoms, which moves it by up to
        # about n eps; at 200 atoms that stays under 1e-15
        pts, w = self._law(n=200)
        cf = cm.Empirical(points=pts, weights=w).cf()
        probes = np.random.default_rng(2).normal(size=(33, 2))
        monkeypatch.setattr(sp, "ATOM_BLOCK", len(pts) * (len(probes) + 1))
        whole = cf(probes)
        for cap in (1, 40, 1000):
            monkeypatch.setattr(sp, "ATOM_BLOCK", cap)
            assert np.max(np.abs(cf(probes) - whole)) <= 1e-15

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(1, 300),
        d=st.integers(1, 3),
        n_probes=st.integers(1, 20),
        cap=st.integers(1, 4000),
        seed=st.integers(0, 2**32 - 1),
        # a uniform 1-d axis instead: start (in steps, an integer puts t = 0
        # on the axis when it is in range), step, length, mirror-symmetric
        axis=st.none() | st.tuples(
            st.integers(-30, 10) | st.floats(-30.0, 10.0),
            st.floats(0.005, 0.1) | st.floats(-0.1, -0.005),
            st.integers(2, 30),
            st.booleans(),
        ),
    )
    def test_property_against_direct_mean(self, n, d, n_probes, cap, seed, axis):
        rng = np.random.default_rng(seed)
        if axis is None:
            t = np.vstack([rng.uniform(-3.0, 3.0, (n_probes, d)), np.zeros(d)])
        else:
            start, step, length, mirror = axis
            k = np.arange(length) - (length - 1) / 2 if mirror else np.arange(length) + start
            t = (step * k)[:, None]
            assert sp._recurrence_axis(t) is not None
        x = rng.uniform(-3.0, 3.0, (n, t.shape[1]))
        with mock.patch.object(sp, "ATOM_BLOCK", cap):
            got = sp.atom_sum(x, np.ones(n), t)
        direct = np.exp(1j * (t @ x.T)).mean(axis=1)
        assert np.max(np.abs(got - direct)) <= 1e-14
        assert np.all(got[~t.any(axis=1)] == 1.0 + 0.0j)
        assert np.max(np.abs(got)) <= 1.0 + 1e-12

    @pytest.mark.parametrize("probes", [
        np.array([[0.01], [0.013], [0.5]]),
        np.array([[0.01, 0.02], [0.013, -0.4], [0.5, 0.3]]),
    ], ids=["1-d", "2-d"])
    def test_trig_sums_match_fsum(self, probes):
        # one matrix product per atom chunk, a dot product along the atoms;
        # a running sum over the 1e5 atoms drifted to about 1e-14
        x = np.random.default_rng(5).standard_normal((100_000, probes.shape[1]))
        assert sp._recurrence_axis(probes) is None
        got = sp._trig_sums(x, np.ones(len(x)), probes) / len(x)
        ref = [complex(math.fsum(np.cos(a).tolist()), math.fsum(np.sin(a).tolist())) / len(x)
               for a in probes @ x.T]
        assert np.max(np.abs(got - ref)) <= 2e-15


class TestPhaseRecurrence:
    """``atom_sum`` on uniformly spaced 1-d probe axes."""

    # m = 129, 17, 16 and 2; mirror-symmetric, without 0, descending
    AXES = [
        np.linspace(-5.0, 5.0, 129),
        np.linspace(0.3, 4.1, 17),
        np.linspace(2.5, -1.25, 16),
        np.array([-1.5, 2.0]),
    ]

    @staticmethod
    def _fsum_mean(x, w, t):
        """sum_j w_j exp(i t x_j) / sum_j w_j with each sum rounded once."""
        arg = np.outer(t, x)
        total = math.fsum(w)
        return np.array([
            complex(math.fsum((w * np.cos(a)).tolist()), math.fsum((w * np.sin(a)).tolist()))
            for a in arg
        ]) / total

    @pytest.mark.parametrize("t", AXES, ids=["mirror-129", "no-zero-17", "descending-16", "two"])
    def test_matches_fsum_on_continuous_draws(self, t):
        x = np.random.default_rng(11).normal(0.0, 1.5, 100_000)
        assert sp._recurrence_axis(t[:, None]) is not None
        got = sp.atom_sum(x[:, None], np.ones(len(x)), t[:, None])
        assert np.max(np.abs(got - self._fsum_mean(x, np.ones(len(x)), t))) <= 1e-14

    @pytest.mark.parametrize(
        "t, fresh",
        [
            (np.linspace(-5.0, 5.0, 129), True),  # mirror: the summed half starts at 0
            (np.linspace(-4.0, 4.25, 34), True),  # 0 is row 16
            (np.linspace(-0.25, 3.75, 17), False),  # 0 is row 1
            (np.linspace(3.5, -0.25, 16), False),  # descending, 0 is row 14
        ],
    )
    def test_one_at_zero_for_every_chunking(self, monkeypatch, t, fresh):
        pts, w = TestAtomSum._law(n=1000, d=1)
        first, _ = sp._recurrence_axis(t[:, None])
        zero = int(np.flatnonzero(t == 0.0)[0])
        assert ((zero - first) % sp._RESEED == 0) == fresh
        for cap in (1, 7, 100, sp.ATOM_BLOCK):
            monkeypatch.setattr(sp, "ATOM_BLOCK", cap)
            got = sp.atom_sum(pts, w, t[:, None])
            assert got[zero] == 1.0 + 0.0j
            assert np.max(np.abs(got - self._fsum_mean(pts[:, 0], w, t))) <= 1e-14

    @pytest.mark.parametrize("t", AXES[:2], ids=["mirror-129", "no-zero-17"])
    def test_atom_far_out(self, t):
        # the phase of the atom at 1e6 is off by a small multiple of
        # eps |x| max|t|, as the rounding of x t itself is
        x = np.array([-0.5, 0.0, 1e6])
        w = np.array([0.3, 0.2, 0.5])
        got = sp.atom_sum(x[:, None], w, t[:, None])
        direct = np.exp(1j * np.outer(t, x)) @ w
        assert np.max(np.abs(got - direct)) <= 8 * np.finfo(float).eps * 1e6 * np.max(np.abs(t))
        assert np.max(np.abs(got)) <= 1.0 + 1e-12

    @pytest.mark.parametrize(
        "probes",
        [
            np.linspace(-5.0, 5.0, 129) + 1e-9 * (np.arange(129) == 40),  # one probe off by 1e-9
            np.random.default_rng(5).permutation(np.linspace(-5.0, 5.0, 129)),
            np.linspace(-5.0, 5.0, 129)[:, None] * [1.0, 0.5],  # 2-d
        ],
        ids=["perturbed", "shuffled", "2-d"],
    )
    def test_other_probes_take_cos_sin(self, probes):
        pts = probes.reshape(len(probes), -1)
        assert sp._recurrence_axis(pts) is None
        x = np.random.default_rng(12).uniform(-3.0, 3.0, (500, pts.shape[1]))
        got = sp.atom_sum(x, np.ones(len(x)), pts)
        assert np.max(np.abs(got - np.exp(1j * (pts @ x.T)).mean(axis=1))) <= 1e-14
        assert np.all(got[~pts.any(axis=1)] == 1.0 + 0.0j)

    def test_1d_lattice_blocks_take_the_recurrence(self, monkeypatch):
        # a 1-d Empirical law's smoothed density: its lattice blocks are
        # uniform axes, and the recurrence moves the density by rounding only
        spec = cm.Empirical(points=[[-1.3], [0.2], [0.9], [2.6]], weights=[0.1, 0.4, 0.3, 0.2])
        grid = cm.Grid(axes=((-5.0, 6.0, 221),))
        taken = []
        recurrence = sp._recurrence_sums
        monkeypatch.setattr(sp, "_recurrence_sums", lambda *a: taken.append(1) or recurrence(*a))
        params = cm.MollificationParams(tail_tol=1e-12)
        field = cm.mollified_density_grid(spec.cf(), 0.5, grid, params)
        assert taken
        monkeypatch.setattr(sp, "_recurrence_axis", lambda pts: None)
        trig = cm.mollified_density_grid(spec.cf(), 0.5, grid, params)
        assert np.max(np.abs(field.values - trig.values)) <= 1e-14
        z = grid.axis_points(0)[:, None]
        mixture = np.exp(-0.5 * ((z - spec.points[:, 0]) / 0.5) ** 2) @ spec.weights
        assert np.max(np.abs(field.values - mixture / (0.5 * math.sqrt(2.0 * math.pi)))) <= 1e-10


def _lattice_block(*axes):
    """A lattice block as ``mollify._lattice_blocks`` yields it: whole rows
    along the last axis, rows in C order, typed with that layout."""
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    length = len(axes[-1])
    return LatticeRows(pts, pts[::length, :-1], pts[:length, -1])


def _derived_block(case):
    """Near-lattice probes made from a typed 5 x 7 block by operations that
    must drop its row claim: a fancy index, a slice, a ufunc, a matrix
    product, a reshape and a copy."""
    pts = _lattice_block(np.linspace(-3.0, 3.0, 5), np.linspace(-2.0, 2.0, 7))
    if case == "shuffled":
        out = pts[np.random.default_rng(3).permutation(len(pts))]
    elif case == "ragged":
        out = pts[:-3]
    elif case == "last-axis-differs":
        out = pts + np.where(np.arange(len(pts))[:, None] == 9, [0.0, 1e-12], 0.0)
    elif case == "lead-varies-in-row":
        out = pts @ np.array([[1.0, 0.0], [1e-12, 1.0]])
    elif case == "one-per-row":
        out = pts.reshape(5, 7, 2)[:, 3]
    else:
        out = pts.copy()
        out[0, 0] = np.nan
    assert type(out) is LatticeRows and sp._lattice_split(out) is None
    return out


DERIVED = ["shuffled", "ragged", "last-axis-differs", "lead-varies-in-row", "one-per-row", "nan"]


class TestRowClaim:
    """Only ``LatticeRows``' constructor claims a row layout."""

    BLOCK = _lattice_block(np.linspace(-3.0, 3.0, 5), np.linspace(-2.0, 2.0, 7))

    def test_plain_lattice_takes_the_per_point_path(self, monkeypatch):
        # an exact lattice passed as a plain array: the closed forms take it
        # probe by probe and ``atom_sum`` takes cos and sin of every phase
        plain = np.asarray(self.BLOCK)
        assert type(plain) is np.ndarray and sp._lattice_split(plain) is None
        laws = TestClosedFormRows._laws(np.random.default_rng(5), 2)
        # a shifted Gaussian's phase <a, t> is a matrix product, whose
        # rounding depends on the probe count
        for spec in [s for s in laws if not (isinstance(s, cm.Gaussian) and s.mean.any())]:
            cf = spec.cf()
            one_at_a_time = TestClosedFormRows._per_point(cf, plain)
            assert cf.batch_eval(plain).tobytes() == one_at_a_time.tobytes()
        monkeypatch.setattr(sp, "_lattice_sums", None)  # not callable
        atoms, w = TestAtomSum._law(n=300)
        got = sp.atom_sum(atoms, w, plain)
        assert got.tobytes() == TestLatticeRows._parent(atoms, w, plain).tobytes()

    def test_typed_points_give_plain_values(self):
        block, plain = self.BLOCK, np.asarray(self.BLOCK)
        typed = []

        def ev(pts):
            typed.append(sp._lattice_split(pts) is not None)
            return np.exp(-0.5 * np.einsum("ni,ni->n", pts, pts))

        # a hand-built evaluator computes on the block itself
        hand = CharFn(2, ev, "yes")
        vals = hand.batch_eval(block)
        assert sp._lattice_split(vals) is None
        assert np.asarray(vals).tobytes() == hand.batch_eval(plain).tobytes()
        # and the lattice walk hands it typed blocks
        typed.clear()
        grid = cm.Grid(axes=((-4.0, 4.0, 17),) * 2)
        field = cm.mollified_density_grid(hand, 0.5, grid)
        assert typed and all(typed)
        z = grid.points()
        exact = gaussian_density(z[:, 0], var=1.25) * gaussian_density(z[:, 1], var=1.25)
        assert type(field.values) is np.ndarray
        assert np.max(np.abs(field.values - exact)) <= 1e-10
        # calling a CharFn hands its evaluator the block with its layout,
        # and a plain array as a plain array; both return a plain array
        typed.clear()
        assert type(hand(block)) is np.ndarray and type(hand(plain)) is np.ndarray
        assert typed == [True, False]
        gauss = cm.Gaussian(mean=[0.2, -0.1], cov=[[1.0, 0.3], [0.3, 0.5]]).cf()
        called = gauss(block)
        assert type(called) is np.ndarray and called.dtype == complex
        assert np.max(np.abs(called - gauss(plain))) <= 1e-15


class TestDiagonalAffineRows:
    """A diagonal ``AffineMap`` hands its inner law a typed block."""

    @pytest.mark.parametrize("shift", [[0.0, 0.0], [0.3, -0.2]], ids=["unshifted", "shifted"])
    def test_inner_law_gets_a_block_with_the_same_bytes(self, monkeypatch, shift):
        # the product's axis factors are bit-equal on rows and point by
        # point, so the typed path must give the per-point bytes
        seen = []
        real = sp._axis_product

        def spy(factors, pts):
            seen.append(sp._lattice_split(pts))
            return real(factors, pts)

        monkeypatch.setattr(sp, "_axis_product", spy)
        inner = cm.Product(factors=(cm.UniformBox(lo=[-1.0], hi=[1.0]), cm.Laplace1D(scale=0.7)))
        cf = cm.AffineMap(matrix=[[2.0, 0.0], [0.0, 0.5]], shift=shift, inner=inner).cf()
        block = _lattice_block(np.linspace(-3.0, 3.0, 5), np.linspace(-2.0, 2.0, 7))
        typed = cf.batch_eval(block)
        lead, last = seen[0]
        assert np.array_equal(lead, block.lattice[0] * 2.0)
        assert np.array_equal(last, block.lattice[1] * 0.5)
        plain = cf.batch_eval(np.asarray(block))
        assert seen[1] is None
        assert typed.tobytes() == plain.tobytes()

    def test_other_matrices_take_the_per_point_path(self, monkeypatch):
        seen = []
        monkeypatch.setattr(sp, "_axis_product",
                            lambda factors, pts: seen.append(sp._lattice_split(pts)) or np.ones(len(pts)))
        inner = cm.Product(factors=(cm.UniformBox(lo=[-1.0], hi=[1.0]), cm.Laplace1D(scale=0.7)))
        block = _lattice_block(np.linspace(-3.0, 3.0, 5), np.linspace(-2.0, 2.0, 7))
        for matrix in ([[2.0, 0.1], [0.0, 0.5]], [[0.0, 1.0], [1.0, 0.0]]):
            cm.AffineMap(matrix=matrix, shift=[0.0, 0.0], inner=inner).cf().batch_eval(block)
        assert seen == [None, None]


class TestLatticeRows:
    """``atom_sum`` on d >= 2 probes that are whole lattice rows."""

    @staticmethod
    def _parent(atoms, w, pts):
        """The cos/sin branch, as ``atom_sum`` runs it on other probes."""
        num = sp._trig_sums(atoms, w, pts)
        total = w.sum()
        np.divide(num.real, total, out=num.real)
        np.divide(num.imag, total, out=num.imag)
        num[~pts.any(axis=1)] = 1.0
        return num

    @staticmethod
    def _fsum_mean(atoms, w, pts):
        arg = pts @ atoms.T
        return np.array([
            complex(math.fsum((w * np.cos(a)).tolist()), math.fsum((w * np.sin(a)).tolist()))
            for a in arg
        ]) / math.fsum(w)

    BLOCKS = [
        # 2-d, 5 rows of 7 (row 2 holds t = 0)
        (_lattice_block(np.linspace(-3.0, 3.0, 5), np.linspace(-2.0, 2.0, 7)), 7),
        # 3-d, 4 x 3 rows of 6 (no zero)
        (_lattice_block(np.linspace(-1.5, 2.5, 4), [-0.7, 0.1, 0.9], np.linspace(-4.0, 1.0, 6)), 6),
        # 3-d with t = 0 in row (1, 1)
        (_lattice_block([-1.0, 0.0], [0.5, 0.0, -0.5], np.linspace(-1.0, 1.0, 9)), 9),
        # one row
        (_lattice_block([0.7], np.linspace(-5.0, 5.0, 33)), 33),
        (_lattice_block([0.0], [-0.2], np.linspace(-5.0, 5.0, 16)), 16),
    ]

    @pytest.mark.parametrize("pts, length", BLOCKS, ids=["2-d", "3-d", "3-d-zero", "one-row", "one-row-3-d"])
    def test_matches_trig_sums_and_fsum(self, monkeypatch, pts, length):
        assert len(sp._lattice_split(pts)[1]) == length
        atoms, w = TestAtomSum._law(n=500, d=pts.shape[1])
        ref = self._fsum_mean(atoms, w, pts)
        zero = ~pts.any(axis=1)
        for cap in (1, 700, sp.ATOM_BLOCK):  # one atom per chunk up to all of them
            monkeypatch.setattr(sp, "ATOM_BLOCK", cap)
            got = sp.atom_sum(atoms, w, pts)
            assert np.max(np.abs(got - ref)) <= 1e-15
            assert np.max(np.abs(got - self._parent(atoms, w, pts))) <= 1e-15
            assert np.all(got[zero] == 1.0 + 0.0j)

    def test_row_holding_zero_is_exactly_one(self):
        # non-dyadic weights: only the t = 0 rule makes chi(0) exactly 1
        pts = _lattice_block(np.linspace(-3.0, 3.0, 5), np.linspace(-2.0, 2.0, 7))
        atoms, w = TestAtomSum._law(n=1000)
        zero = int(np.flatnonzero(~pts.any(axis=1))[0])
        assert zero == 17  # row 2, column 3
        assert sp.atom_sum(atoms, w, pts)[zero] == 1.0 + 0.0j

    @pytest.mark.parametrize("case", DERIVED)
    def test_other_blocks_take_cos_sin(self, case):
        pts = _derived_block(case)
        atoms, w = TestAtomSum._law(n=300)
        got = sp.atom_sum(atoms, w, pts)
        assert got.tobytes() == self._parent(atoms, w, pts).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 80),
        shape=st.lists(st.integers(1, 5), min_size=1, max_size=2).map(tuple),
        length=st.integers(2, 12),
        cap=st.integers(1, 3000),
        seed=st.integers(0, 2**32 - 1),
        zero=st.booleans(),
    )
    def test_property_branches_agree(self, n, shape, length, cap, seed, zero):
        rng = np.random.default_rng(seed)
        axes = [np.sort(rng.uniform(-4.0, 4.0, m)) for m in shape + (length,)]
        if zero:  # put t = 0 on the lattice
            for y in axes:
                y[0] = 0.0
        pts = _lattice_block(*axes)
        assert len(sp._lattice_split(pts)[1]) == length
        atoms = rng.uniform(-3.0, 3.0, (n, pts.shape[1]))
        w = rng.uniform(0.0, 1.0, n) + 1e-3
        with mock.patch.object(sp, "ATOM_BLOCK", cap):
            got = sp.atom_sum(atoms, w, pts)
        assert np.max(np.abs(got - self._parent(atoms, w, pts))) <= 1e-14
        assert np.all(got[~pts.any(axis=1)] == 1.0 + 0.0j)
        assert np.max(np.abs(got)) <= 1.0 + 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_lattice_blocks_take_the_branch(self, monkeypatch, d):
        # every chi block of a 2-d or 3-d Empirical lattice is whole rows
        spec = cm.Empirical(points=TestAtomSum._law(n=5, d=d)[0] / 3.0, weights=np.full(5, 0.2))
        grid = cm.Grid(axes=((-4.0, 4.0, 17),) * d)
        calls = {"_lattice_sums": 0, "_trig_sums": 0}
        for name in calls:
            def counted(*args, name=name, fn=getattr(sp, name)):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(sp, name, counted)
        params = cm.MollificationParams(truncation_radius=12.0, nodes_per_axis=64)
        field = cm.mollified_density_grid(spec.cf(), 0.5, grid, params)
        assert calls["_lattice_sums"] > 0 and calls["_trig_sums"] == 0
        monkeypatch.setattr(sp, "_lattice_split", lambda pts: None)
        parent = cm.mollified_density_grid(spec.cf(), 0.5, grid, params)
        assert calls["_trig_sums"] > 0
        assert np.max(np.abs(field.values - parent.values)) <= 1e-15


def test_symmetric_laws_have_real_chi(spec_zoo):
    # a law built from real-chi parts (zero-mean Gaussian, Laplace, centred
    # box) evaluates in float64; a shift anywhere, an atom or an Empirical
    # part keeps it complex
    real = {"laplace", "convolution", "product"}
    t = np.random.default_rng(4).uniform(-5.0, 5.0, (40, 2))
    for spec in spec_zoo:
        vals = spec.cf().batch_eval(t[:, : spec.dim])
        assert vals.dtype == (np.float64 if spec.json_type in real else np.complex128), spec
    centred = [
        cm.Gaussian(mean=[0.0, 0.0], cov=[[1.0, 0.4], [0.4, 2.0]]),
        cm.UniformBox(lo=[-1.0, -2.0], hi=[1.0, 2.0]),
        cm.AffineMap(matrix=[[0.5], [1.0]], shift=[0.0, 0.0], inner=cm.Laplace1D(scale=1.0)),
        cm.StandardizedIIDSum(base=cm.UniformBox(lo=[-1.0], hi=[1.0]), n=3),
    ]
    for spec in centred:
        assert spec.cf().batch_eval(t[:, : spec.dim]).dtype == np.float64, spec
    shifted = [
        cm.Gaussian(mean=[0.0, 0.1], cov=[[1.0, 0.0], [0.0, 1.0]]),
        cm.UniformBox(lo=[-1.0, -2.0], hi=[1.0, 3.0]),
        cm.AffineMap(matrix=[[0.5], [1.0]], shift=[0.0, 0.2], inner=cm.Laplace1D(scale=1.0)),
        cm.Product(factors=(cm.Laplace1D(scale=1.0), cm.PointMass(location=[0.3]))),
    ]
    for spec in shifted:
        assert spec.cf().batch_eval(t[:, : spec.dim]).dtype == np.complex128, spec
    gauss = cm.Gaussian(mean=[0.0], cov=[[1.0]]).cf()
    assert cm.gaussian_mollify_cf(gauss, 0.5).batch_eval(t[:, :1]).dtype == np.float64


def _random_cov(rng, d):
    a = rng.normal(size=(d, d))
    return a @ a.T + 0.3 * np.eye(d)


class TestClosedFormRows:
    """``Gaussian``, ``UniformBox`` and ``Product`` on whole lattice rows:
    each row's leading coordinates and the shared row positions once."""

    @staticmethod
    def _laws(rng, d):
        diagonal = cm.Gaussian(mean=[0.0] * d, cov=np.diag(rng.uniform(0.3, 2.0, d)))
        correlated = cm.Gaussian(mean=[0.0] * d, cov=_random_cov(rng, d))
        shifted = cm.Gaussian(mean=rng.uniform(-1.0, 1.0, d), cov=_random_cov(rng, d))
        factors = [
            cm.UniformBox(lo=[-1.0], hi=[1.0]),
            cm.Laplace1D(scale=0.7),
            cm.Gaussian(mean=[0.0], cov=[[1.3]]),
            cm.UniformBox(lo=[-0.5], hi=[1.5]),
        ]
        product = cm.Product(factors=tuple(factors[j % 4] for j in range(d)))
        box = cm.UniformBox(lo=-rng.uniform(0.5, 2.0, d), hi=rng.uniform(0.5, 2.0, d))
        return [diagonal, correlated, shifted, product, box]

    @staticmethod
    def _per_point(cf, pts):
        """chi one probe at a time, which never reads a row layout."""
        return np.concatenate([cf.batch_eval(p[None, :]) for p in pts])

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.lists(st.integers(1, 5), min_size=1, max_size=2).map(tuple),
        length=st.integers(2, 12),
        seed=st.integers(0, 2**32 - 1),
        zero=st.booleans(),
    )
    def test_rows_match_per_point(self, shape, length, seed, zero):
        rng = np.random.default_rng(seed)
        axes = [np.sort(rng.uniform(-4.0, 4.0, m)) for m in shape + (length,)]
        if zero:  # put t = 0 on the lattice
            for y in axes:
                y[0] = 0.0
        pts = _lattice_block(*axes)
        assert len(sp._lattice_split(pts)[1]) == length
        for spec in self._laws(rng, pts.shape[1]):
            got = spec.cf().batch_eval(pts)
            ref = self._per_point(spec.cf(), pts)
            assert got.dtype == ref.dtype
            # to 1e-15 of chi's largest value, chi(0) = 1
            assert np.max(np.abs(got - ref)) <= 1e-15
            assert np.all(got[~pts.any(axis=1)] == 1.0)
            if not isinstance(spec, cm.Gaussian):
                # the outer product repeats the per-point multiplications
                assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("case", DERIVED)
    def test_other_blocks_take_the_per_point_path(self, monkeypatch, case):
        pts = _derived_block(case)
        cfs = [spec.cf() for spec in self._laws(np.random.default_rng(5), 2)]
        got = [cf.batch_eval(pts) for cf in cfs]
        monkeypatch.setattr(sp, "_lattice_split", lambda pts: None)
        for cf, vals in zip(cfs, got):
            assert vals.tobytes() == cf.batch_eval(pts).tobytes()

    @pytest.mark.parametrize("d", [2, 3])
    def test_lattice_blocks_take_the_rows(self, monkeypatch, d):
        # every chi block of a 2-d or 3-d lattice is whole rows; the factored
        # closed forms move the density by rounding only
        rng = np.random.default_rng(d)
        z_axes = [np.linspace(-4.0, 4.0, 17)] * d
        params = cm.MollificationParams(truncation_radius=12.0, nodes_per_axis=64)
        split = sp._lattice_split
        for spec in self._laws(rng, d):
            cf = spec.cf()
            plan = mo._plan(cf, 0.5, params)
            seen = []

            def recorded(pts):
                out = split(pts)
                if pts.shape[1] == d:  # a Product's factors see 1-d columns
                    seen.append(out is not None)
                return out

            monkeypatch.setattr(sp, "_lattice_split", recorded)
            rows, _ = mo._scaled_transform(cf, plan, z_axes)
            assert seen and all(seen)
            monkeypatch.setattr(sp, "_lattice_split", lambda pts: None)
            points, _ = mo._scaled_transform(cf, plan, z_axes)
            assert np.max(np.abs(rows - points)) <= 1e-15 * np.max(np.abs(points))
