"""Declarative descriptions of probability laws on R^d.

A DistributionSpec is a small tree of constructors (Gaussian, PointMass,
UniformBox, Laplace1D, Empirical, Convolution, AffineMap,
StandardizedIIDSum, Product).  Each constructor is one frozen dataclass
that holds everything about its law: it validates its own invariants on
construction, knows its dimension, builds its characteristic function
(``cf``) and draws samples (``draw``).  Adding a constructor means adding
one class here.

Each spec has a canonical JSON-compatible form: the ``type`` name the class
registers, then its dataclass fields in declaration order, e.g.::

    {"type": "gaussian", "mean": [0.0], "cov": [[1.0]]}
    {"type": "convolution", "parts": [ ... ]}

``spec_to_dict`` / ``spec_from_dict`` convert both ways; ``load_spec`` reads
and validates a file.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .charfn import CharFn, convolve
from .errors import ValidationError

WEIGHT_SUM_TOL = 1e-12
COV_EIG_TOL = 1e-12

# Switch to the 2-term Taylor expansion of sin(x)/x once t*(hi-lo) is this
# small; avoids 0/0 at t=0 and cancellation nearby.
UNIFORM_TAYLOR_SWITCH = 1e-8

# Elements of one (atoms x points) chunk of ``atom_sum``: its two float
# temporaries stay near 4 MiB each, whatever the atom count.
ATOM_BLOCK = 1 << 19

# Up to this many atoms, ``Empirical.draw`` finds each draw's atom by
# counting the CDF cuts below it in a uint8 counter, one comparison pass
# per cut; with more, a binary search is faster (crossover near 100 atoms
# at 1e6 draws).
CUT_ATOMS = 64

# JSON ``type`` name -> constructor class, filled as the classes are defined
SPEC_TYPES: dict[str, type[DistributionSpec]] = {}


def _vector(x, name: str) -> np.ndarray:
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1 or v.size == 0 or not np.all(np.isfinite(v)):
        raise ValidationError(f"{name} must be a finite 1-d vector, got {x!r}")
    return v


def whole_number(x, name: str, least: int) -> int:
    """``x`` as an int >= ``least``: integers, numpy integers and integral
    floats (4, 4.0) pass; 2.7, NaN and infinities do not."""
    if not (isinstance(x, numbers.Real) and float(x).is_integer()):
        raise ValidationError(f"{name} must be an integer, got {x!r}")
    if x < least:
        raise ValidationError(f"{name} must be >= {least}, got {x!r}")
    return int(x)


def atom_sum(atoms: np.ndarray, weights: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """sum_j w_j exp(i<t, x_j>) / sum_j w_j for each row t of ``pts``, with
    the atoms x_j the rows of ``atoms``.

    The atoms go through in chunks whose (atoms x points) phase arrays hold
    about ``ATOM_BLOCK`` elements, with cos and sin summed over the atom
    axis into real accumulators, so memory does not grow with the atom
    count.  The normalizer is the real sum at an appended t = 0, taken in
    the numerator's own reduction order: chi(0) is exactly 1 for any chunk
    count and any weights.
    """
    pts = np.concatenate([pts, np.zeros((1, atoms.shape[1]))])
    re = np.zeros(len(pts))
    im = np.zeros(len(pts))
    step = max(1, ATOM_BLOCK // len(pts))
    for lo in range(0, len(atoms), step):
        w = weights[lo : lo + step, None]
        arg = atoms[lo : lo + step] @ pts.T
        part = np.cos(arg)
        part *= w
        re += part.sum(axis=0)
        np.sin(arg, out=part)
        part *= w
        im += part.sum(axis=0)
    out = np.empty(len(pts) - 1, dtype=complex)
    np.divide(re[:-1], re[-1], out=out.real)
    np.divide(im[:-1], re[-1], out=out.imag)
    return out


def philox(seq: np.random.SeedSequence) -> np.random.Generator:
    """The counter-based generator every sampler draws from."""
    return np.random.Generator(np.random.Philox(seq))


class DistributionSpec:
    """Base class of the constructors.

    A subclass names its JSON type in the class statement, e.g.
    ``class Gaussian(DistributionSpec, type="gaussian")``, and is a frozen
    dataclass whose fields are its JSON fields: arrays, numbers, nested
    specs (annotated ``DistributionSpec``) or tuples of nested specs.
    """

    json_type: str

    def __init_subclass__(cls, *, type: str, **kwargs):
        super().__init_subclass__(**kwargs)
        if type in SPEC_TYPES:
            raise TypeError(f"spec type {type!r} is already taken by {SPEC_TYPES[type]}")
        cls.json_type = type
        SPEC_TYPES[type] = cls

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def cf(self) -> CharFn:
        """The characteristic function of the law."""
        raise NotImplementedError

    def draw(self, n: int, seq: np.random.SeedSequence) -> np.ndarray:
        """n i.i.d. draws as an (n, dim) array; composite specs give each
        component its own child stream of ``seq``."""
        raise NotImplementedError


@dataclass(frozen=True)
class Gaussian(DistributionSpec, type="gaussian"):
    """Normal law with mean vector and symmetric PSD covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = _vector(self.mean, "mean")
        cov = np.asarray(self.cov, dtype=float)
        if cov.shape != (mean.size, mean.size):
            raise ValidationError(
                f"covariance shape {cov.shape} does not match mean of length {mean.size}"
            )
        if not np.all(np.isfinite(cov)):
            raise ValidationError("covariance must be finite")
        scale = max(1.0, float(np.max(np.abs(cov))))
        if not np.all(np.abs(cov - cov.T) <= 1e-12 * scale):
            raise ValidationError("covariance must be symmetric")
        cov = 0.5 * (cov + cov.T)
        eigs = np.linalg.eigvalsh(cov)
        tol = COV_EIG_TOL * max(float(np.trace(cov)), 0.0)
        if eigs.min() < -tol:
            raise ValidationError(
                f"covariance must be PSD; smallest eigenvalue {eigs.min():g}"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.size

    def is_positive_definite(self) -> bool:
        eigs = np.linalg.eigvalsh(self.cov)
        return bool(eigs.min() > COV_EIG_TOL * max(float(np.trace(self.cov)), 1e-300))

    def cf(self) -> CharFn:
        """exp(i<a,t> - <t,Ct>/2); integrable when C is positive definite."""
        mean, cov = self.mean, self.cov

        def ev(pts: np.ndarray) -> np.ndarray:
            # PSD tolerance can leave slightly negative quadratic forms; clamp
            # so |chi| <= 1 holds.
            quad = np.einsum("ni,ni->n", pts @ cov, pts)
            np.maximum(quad, 0.0, out=quad)
            return np.exp(1j * (pts @ mean) - 0.5 * quad)

        flag = "yes" if self.is_positive_definite() else "unknown"
        return CharFn(self.dim, ev, flag, self.json_type)

    def draw(self, n: int, seq: np.random.SeedSequence) -> np.ndarray:
        # exact normal sampler; eigh handles PSD covariances that Cholesky rejects
        # the mean is added in place, so at most two (n, dim) arrays are alive
        z = philox(seq).standard_normal((n, self.dim))
        eigvals, eigvecs = np.linalg.eigh(self.cov)
        out = z @ (eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))).T
        del z
        out += self.mean
        return out


@dataclass(frozen=True)
class PointMass(DistributionSpec, type="point_mass"):
    """Unit mass at a single point."""

    location: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "location", _vector(self.location, "location"))

    @property
    def dim(self) -> int:
        return self.location.size

    def cf(self) -> CharFn:
        """exp(i<x,t>); an atom, so never integrable."""
        location = self.location

        def ev(pts: np.ndarray) -> np.ndarray:
            return np.exp(1j * (pts @ location))

        return CharFn(self.dim, ev, "no", self.json_type)

    def draw(self, n: int, seq: np.random.SeedSequence) -> np.ndarray:
        return np.tile(self.location, (n, 1))


@dataclass(frozen=True)
class UniformBox(DistributionSpec, type="uniform_box"):
    """Uniform law on the axis-aligned box [lo_1,hi_1] x ... x [lo_d,hi_d]."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = _vector(self.lo, "lo")
        hi = _vector(self.hi, "hi")
        if lo.size != hi.size:
            raise ValidationError("lo and hi must have equal length")
        if not np.all(hi > lo):
            raise ValidationError("hi must exceed lo componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.size

    def cf(self) -> CharFn:
        """Product over axes of exp(i t c_j) sin(t w_j)/(t w_j), with c the
        box centre and w its half-widths."""
        center = 0.5 * (self.lo + self.hi)
        half = 0.5 * (self.hi - self.lo)
        width = self.hi - self.lo

        def ev(pts: np.ndarray) -> np.ndarray:
            vals = np.ones(pts.shape[0], dtype=complex)
            for j in range(width.size):
                tj = pts[:, j]
                x = tj * half[j]
                small = np.abs(tj * width[j]) < UNIFORM_TAYLOR_SWITCH
                safe = np.where(small, 1.0, x)
                ratio = np.where(small, 1.0 - x * x / 6.0, np.sin(safe) / safe)
                vals *= ratio * np.exp(1j * tj * center[j])
            return vals

        return CharFn(self.dim, ev, "unknown", self.json_type)

    def draw(self, n: int, seq: np.random.SeedSequence) -> np.ndarray:
        return philox(seq).uniform(self.lo, self.hi, size=(n, self.dim))


@dataclass(frozen=True)
class Laplace1D(DistributionSpec, type="laplace"):
    """Symmetric Laplace law on R with density exp(-|x|/scale)/(2*scale)."""

    scale: float

    def __post_init__(self):
        s = float(self.scale)
        if not (s > 0 and np.isfinite(s)):
            raise ValidationError(f"scale must be positive, got {self.scale!r}")
        object.__setattr__(self, "scale", s)

    @property
    def dim(self) -> int:
        return 1

    def cf(self) -> CharFn:
        """1/(1 + b^2 t^2), integrable."""
        scale = self.scale

        def ev(pts: np.ndarray) -> np.ndarray:
            t = pts[:, 0]
            return (1.0 / (1.0 + (scale * t) ** 2)).astype(complex)

        return CharFn(1, ev, "yes", self.json_type)

    def draw(self, n: int, seq: np.random.SeedSequence) -> np.ndarray:
        return philox(seq).laplace(0.0, self.scale, size=(n, 1))


@dataclass(frozen=True)
class Empirical(DistributionSpec, type="empirical"):
    """Finite discrete law: atoms at ``points`` with the given weights.

    Weights must be nonnegative and sum to 1 within 1e-12; they are stored
    renormalized so downstream evaluations treat them as exact.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0 or not np.all(np.isfinite(pts)):
            raise ValidationError("points must be a nonempty list of finite vectors")
        w = _vector(self.weights, "weights")
        if w.size != pts.shape[0]:
            raise ValidationError("weights length must match number of points")
        if np.any(w < 0):
            raise ValidationError("weights must be nonnegative")
        total = float(np.sum(w))
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValidationError(f"weights must sum to 1 within 1e-12, got {total!r}")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w / total)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def cf(self) -> CharFn:
        """sum_j w_j exp(i<t,x_j>) (``atom_sum``); atoms, so never integrable."""
        points, weights = self.points, self.weights
        return CharFn(self.dim, lambda pts: atom_sum(points, weights, pts), "no", self.json_type)

    def draw(self, n: int, seq: np.random.SeedSequence) -> np.ndarray:
        """``Generator.choice(k, n, p=weights)``'s own inverse CDF on the
        same stream, so the draws are bit-identical to it: the atom of a
        uniform u is the number of CDF values <= u."""
        cdf = np.cumsum(self.weights)
        cdf /= cdf[-1]
        u = philox(seq).random(n)
        if len(cdf) <= CUT_ATOMS:
            idx = np.zeros(n, dtype=np.uint8)
            for cut in cdf[:-1]:
                idx += u >= cut
        else:
            idx = cdf.searchsorted(u, side="right")
        del u  # not alive during the gather
        return self.points[idx]


@dataclass(frozen=True)
class Convolution(DistributionSpec, type="convolution"):
    """Law of the sum of independent draws from each part."""

    parts: tuple[DistributionSpec, ...]

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise ValidationError("convolution needs at least one part")
        d = parts[0].dim
        for p in parts:
            if p.dim != d:
                raise ValidationError(
                    f"convolution parts must share dimension ({p.dim} != {d})"
                )
        object.__setattr__(self, "parts", parts)

    @property
    def dim(self) -> int:
        return self.parts[0].dim

    def cf(self) -> CharFn:
        """Pointwise product of the part CFs (``charfn.convolve``)."""
        return functools.reduce(convolve, [p.cf() for p in self.parts])

    def draw(self, n: int, seq: np.random.SeedSequence) -> np.ndarray:
        out = np.zeros((n, self.dim))
        for part, child in zip(self.parts, seq.spawn(len(self.parts))):
            out += part.draw(n, child)
        return out


@dataclass(frozen=True)
class AffineMap(DistributionSpec, type="affine_map"):
    """Law of A X + b where X follows ``inner``."""

    matrix: np.ndarray
    shift: np.ndarray
    inner: DistributionSpec

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=float)
        if a.ndim != 2 or not np.all(np.isfinite(a)):
            raise ValidationError("matrix must be a finite 2-d array")
        b = _vector(self.shift, "shift")
        if a.shape[0] != b.size:
            raise ValidationError("shift length must match matrix output dimension")
        if a.shape[1] != self.inner.dim:
            raise ValidationError(
                f"matrix input dimension {a.shape[1]} does not match inner dim {self.inner.dim}"
            )
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "shift", b)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def cf(self) -> CharFn:
        """chi_inner(A^T t) exp(i<b,t>)."""
        inner, matrix, shift = self.inner.cf(), self.matrix, self.shift

        def ev(pts: np.ndarray) -> np.ndarray:
            return inner.batch_eval(pts @ matrix) * np.exp(1j * (pts @ shift))

        return CharFn(self.dim, ev, "unknown", self.json_type)

    def draw(self, n: int, seq: np.random.SeedSequence) -> np.ndarray:
        return self.inner.draw(n, seq.spawn(1)[0]) @ self.matrix.T + self.shift


@dataclass(frozen=True)
class StandardizedIIDSum(DistributionSpec, type="standardized_iid_sum"):
    """Law of (X_1 + ... + X_n)/sqrt(n) for i.i.d. draws from ``base``.

    The base must be one-dimensional with mean 0 and variance 1.  That
    standardization is declared by the caller and is not inferred or
    checked; a wrong declaration silently shifts/scales the limit.  ``n``
    must be an integer (4 or 4.0, not 2.7).
    """

    base: DistributionSpec
    n: int

    def __post_init__(self):
        if self.base.dim != 1:
            raise ValidationError("standardized iid sum requires a 1-d base")
        object.__setattr__(self, "n", whole_number(self.n, "n", 1))

    @property
    def dim(self) -> int:
        return 1

    def cf(self) -> CharFn:
        """chi_base(t/sqrt(n))^n."""
        base, n = self.base.cf(), self.n
        root = math.sqrt(n)

        def ev(pts: np.ndarray) -> np.ndarray:
            return base.batch_eval(pts / root) ** n

        return CharFn(1, ev, "unknown", self.json_type)

    def draw(self, n: int, seq: np.random.SeedSequence) -> np.ndarray:
        acc = np.zeros((n, 1))
        for child in seq.spawn(self.n):
            acc += self.base.draw(n, child)
        return acc / np.sqrt(self.n)


@dataclass(frozen=True)
class Product(DistributionSpec, type="product"):
    """Independent product of 1-d factors, one per coordinate."""

    factors: tuple[DistributionSpec, ...] = field(default=())

    def __post_init__(self):
        factors = tuple(self.factors)
        if not factors:
            raise ValidationError("product needs at least one factor")
        for f in factors:
            if f.dim != 1:
                raise ValidationError("product factors must all be 1-d")
        object.__setattr__(self, "factors", factors)

    @property
    def dim(self) -> int:
        return len(self.factors)

    def cf(self) -> CharFn:
        """Product over axes of the factor CFs."""
        factors = [f.cf() for f in self.factors]

        def ev(pts: np.ndarray) -> np.ndarray:
            vals = np.ones(pts.shape[0], dtype=complex)
            for j, f in enumerate(factors):
                vals *= f.batch_eval(pts[:, j : j + 1])
            return vals

        return CharFn(self.dim, ev, "unknown", self.json_type)

    def draw(self, n: int, seq: np.random.SeedSequence) -> np.ndarray:
        children = seq.spawn(len(self.factors))
        return np.concatenate([f.draw(n, c) for f, c in zip(self.factors, children)], axis=1)


# ---------------------------------------------------------------------------
# JSON form
# ---------------------------------------------------------------------------

def spec_to_dict(spec: DistributionSpec) -> dict:
    """Canonical JSON-compatible dict for a spec tree."""
    if not isinstance(spec, DistributionSpec):
        raise ValidationError(f"unknown spec class {type(spec).__name__}")
    out = {"type": spec.json_type}
    for f in fields(spec):
        value = getattr(spec, f.name)
        if isinstance(value, DistributionSpec):
            value = spec_to_dict(value)
        elif isinstance(value, tuple):
            value = [spec_to_dict(v) for v in value]
        elif isinstance(value, np.ndarray):
            value = value.tolist()
        out[f.name] = value
    return out


def _field_from_json(annotation: str, value):
    """A nested spec or tuple of specs is parsed; anything else is left for
    the constructor to convert and validate."""
    if annotation == "DistributionSpec":
        return spec_from_dict(value)
    if annotation.startswith("tuple["):
        return tuple(spec_from_dict(v) for v in value)
    return value


def spec_from_dict(d: dict) -> DistributionSpec:
    """Parse and validate the canonical dict form."""
    if not isinstance(d, dict) or "type" not in d:
        raise ValidationError(f"spec must be an object with a 'type' field, got {d!r}")
    t = d["type"]
    cls = SPEC_TYPES.get(t) if isinstance(t, str) else None
    if cls is None:
        raise ValidationError(f"unknown spec type {t!r}")
    missing = [f.name for f in fields(cls) if f.name not in d]
    if missing:
        raise ValidationError(f"spec of type {t!r} missing fields {missing}")
    try:
        return cls(**{f.name: _field_from_json(f.type, d[f.name]) for f in fields(cls)})
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed {t!r} spec: {exc}") from exc


def load_spec(path: str | Path) -> DistributionSpec:
    """Read a spec JSON file, validating it on load."""
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"spec file not found: {p}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"spec file {p} is not valid JSON: {exc}") from exc
    return spec_from_dict(data)


def save_spec(spec: DistributionSpec, path: str | Path) -> None:
    Path(path).write_text(json.dumps(spec_to_dict(spec), indent=2, sort_keys=True) + "\n")
