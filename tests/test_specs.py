import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cfmoll as cm
import cfmoll.specs as sp
from cfmoll import DistributionSpec, ValidationError, spec_from_dict, spec_to_dict
from cfmoll.specs import SPEC_TYPES


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
    assert dims == [1, 2, 1, 2, 1, 1, 1, 1, 2, 1, 2]


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
    )
    def test_property_against_direct_mean(self, n, d, n_probes, cap, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-3.0, 3.0, (n, d))
        t = np.vstack([rng.uniform(-3.0, 3.0, (n_probes, d)), np.zeros(d)])
        with mock.patch.object(sp, "ATOM_BLOCK", cap):
            got = sp.atom_sum(x, np.ones(n), t)
        direct = np.exp(1j * (t @ x.T)).mean(axis=1)
        assert np.max(np.abs(got - direct)) <= 1e-14
        assert got[-1] == 1.0 + 0.0j
        assert np.max(np.abs(got)) <= 1.0 + 1e-12
