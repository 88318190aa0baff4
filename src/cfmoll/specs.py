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
import itertools
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .charfn import CharFn, LatticeRows, cis, convolve, whole_number
from .errors import ValidationError

WEIGHT_SUM_TOL = 1e-12
COV_EIG_TOL = 1e-12

# Elements of one (atoms x points) chunk of ``atom_sum``: its temporaries
# stay near 4 MiB each, whatever the atom count.
ATOM_BLOCK = 1 << 19

# On a uniform 1-d probe axis, ``atom_sum`` takes fresh cos/sin every this
# many probes and complex multiplies in between.
_RESEED = 16

# Up to this many atoms, ``Empirical.draw`` finds each draw's atom by
# counting the CDF cuts below it in a uint8 counter, one comparison pass
# per cut; with more, a binary search is faster (crossover near 100 atoms
# at 1e6 draws).
CUT_ATOMS = 64

# ``StandardizedIIDSum.sum_law`` builds the exact law of a sum over an
# ``Empirical`` base only while it has at most this many count vectors,
# C(n + k - 1, k - 1) for n terms over k atoms; its atoms are their
# distinct sums.
_SUM_LAW_CAP = 1 << 16

# JSON ``type`` name -> constructor class, filled as the classes are defined
SPEC_TYPES: dict[str, type[DistributionSpec]] = {}


def _vector(x, name: str) -> np.ndarray:
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1 or v.size == 0 or not np.all(np.isfinite(v)):
        raise ValidationError(f"{name} must be a finite 1-d vector, got {x!r}")
    return v


def _recurrence_axis(pts: np.ndarray) -> tuple[int, float] | None:
    """``(first, dt)`` when ``atom_sum`` may run its phase recurrence on
    the probes, else None.

    The probes must be one column of m >= 2 values t_k, each within
    4 eps max(|t_0|, |t_(m-1)|) of t_0 + k dt, dt = (t_(m-1) - t_0) / (m - 1).
    Then t_k and t_b + (k - b) dt, the probe the recurrence reaches from
    any fresh row b, differ by about twice that at most.  ``first`` is m // 2
    when the axis is its own mirror image (``t == -t[::-1]``), whose other
    half is then the conjugate, else 0.  NaN or infinite probes fail.
    """
    m = len(pts)
    if pts.shape[1] != 1 or m < 2:
        return None
    t = pts[:, 0]
    dt = (t[-1] - t[0]) / (m - 1)
    dev = np.arange(m, dtype=float)
    dev *= dt
    dev += t[0]
    dev -= t
    tol = 4.0 * np.finfo(float).eps * max(abs(t[0]), abs(t[-1]))
    if not (np.abs(dev, out=dev) <= tol).all():
        return None
    first = m // 2 if (t == -t[::-1]).all() else 0
    return first, float(dt)


def _recurrence_sums(x: np.ndarray, weights: np.ndarray, t: np.ndarray, dt: float) -> np.ndarray:
    """sum_j w_j exp(i t_k x_j) on a uniform axis t by the row split
    k = q K + s, K = min(``_RESEED``, len(t)): fresh cos/sin of t_(qK) x_j
    (the outer rows) times w_j exp(i s dt x_j) (the inner rows), which
    doubling builds from w_j with complex multiplies only.  One complex
    matrix product per atom chunk adds every outer row against every
    inner row."""
    m = len(t)
    k = min(_RESEED, m)
    # the outer rows' phases, then dt x in the last row
    scales = np.append(t[::k], dt)[:, None]
    q = len(scales) - 1
    out = np.zeros((q, k), dtype=complex)
    step = max(1, ATOM_BLOCK // (2 * (q + k)))
    for lo in range(0, len(x), step):
        xs = x[lo : lo + step]
        rows = cis(scales * xs)
        outer, power = rows[:q], rows[q]
        inner = np.empty((k, len(xs)), dtype=complex)
        inner[0] = weights[lo : lo + step]
        span = 1  # rows [0, span) hold w exp(i s dt x); power is exp(i span dt x)
        while span < k:
            n = min(span, k - span)
            np.multiply(inner[:n], power, out=inner[span : span + n])
            power *= power
            span *= 2
        out += outer @ inner.T
    return out.reshape(-1)[:m]


def _trig_sums(atoms: np.ndarray, weights: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """sum_j w_j exp(i<t, x_j>) for each row t of ``pts`` from cos and sin
    of every phase, on (atoms x points) chunks: neighbouring phases follow
    the probes, which on lattices makes the trig 1.5x as fast as the
    transposed order.  A chunk's weighted rows are added pairwise (the top
    half folded onto the bottom until one row is left), so the rounding
    grows with log2 of the atom count, not with the count."""
    num = np.zeros(len(pts), dtype=complex)
    step = max(1, ATOM_BLOCK // len(pts))
    for lo in range(0, len(atoms), step):
        w = weights[lo : lo + step, None]
        arg = atoms[lo : lo + step] @ pts.T
        part = np.empty_like(arg)
        for trig, acc in ((np.cos, num.real), (np.sin, num.imag)):
            trig(arg, out=part)
            part *= w
            n = len(part)
            while n > 1:
                h = n // 2
                part[:h] += part[n - h : n]
                n -= h
            acc += part[0]
    return num


def _lattice_split(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The (lead, last) row layout a ``charfn.LatticeRows`` block states,
    probe r L + l being (lead[r], last[l]); None for any other array."""
    return getattr(pts, "lattice", None)


def _lattice_sums(
    atoms: np.ndarray, weights: np.ndarray, lead: np.ndarray, last: np.ndarray
) -> np.ndarray:
    """sum_j w_j exp(i<t, x_j>) on whole lattice rows (``_lattice_split``),
    as one complex matrix product per atom chunk:
    [w_j exp(i<t_lead,r, x_j,lead>)] (rows x atoms) times
    [exp(i t_last,l x_j,last)] (atoms x row length).  Chunks keep both
    factors within ``ATOM_BLOCK`` elements."""
    out = np.zeros((len(lead), len(last)), dtype=complex)
    step = max(1, ATOM_BLOCK // max(len(lead), len(last)))
    for lo in range(0, len(atoms), step):
        xs = atoms[lo : lo + step]
        rows = cis(lead @ xs[:, :-1].T)
        rows *= weights[lo : lo + step]
        out += rows @ cis(np.multiply.outer(xs[:, -1], last))
    return out.reshape(-1)


def _axis_product(factors, pts: np.ndarray) -> np.ndarray:
    """prod_j f_j(t_j) for each row t of ``pts``, with ``factors[j]``
    mapping a 1-d array of axis-j coordinates to values (float or complex).

    On a ``charfn.LatticeRows`` block (``_lattice_split``) the leading
    factors are taken once per row and the last once per row position,
    and one outer product combines them: the same multiplications in the
    same order as point by point, so the values are bit-equal to it.  Any
    other array is evaluated point by point."""
    split = _lattice_split(pts)
    cols = pts if split is None else split[0]
    vals = factors[0](cols[:, 0])
    for j in range(1, cols.shape[1]):
        vals = vals * factors[j](cols[:, j])
    if split is None:
        return vals
    return np.multiply.outer(vals, factors[-1](split[1])).reshape(-1)


def _box_axis(half: float, center: float, t: np.ndarray) -> np.ndarray:
    """exp(i t c) sin(t w)/(t w) for one axis of a box with centre c and
    half-width w; real where c = 0."""
    x = t * half
    # sin(x)/x rounds to exactly 1 wherever x is tiny, so only x = 0 needs
    # its limit
    ratio = np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0.0)
    return ratio * cis(t * center) if center != 0.0 else ratio


def _gaussian_modulus(cov: np.ndarray, uncoupled: bool, pts: np.ndarray) -> np.ndarray:
    """exp(-<t, C t> / 2) for each row t of ``pts``, the quadratic form
    clamped at 0 so the modulus stays <= 1 under the PSD tolerance.

    On a ``charfn.LatticeRows`` block (``_lattice_split``) with leading
    coordinates a and last coordinate s,
    <t, C t> = a'C_aa a + 2 s c'a + C_ss s^2 with c = C[:-1, -1]: the row
    terms are taken once per row and the powers of s once per row
    position.  ``uncoupled`` (c = 0) makes the modulus the
    outer product of exp(-a'C_aa a / 2) and exp(-C_ss s^2 / 2), each
    clamped; otherwise each row's quadratic in s is one broadcast."""
    split = _lattice_split(pts)
    if split is None:
        quad = np.einsum("ni,ni->n", pts @ cov, pts)
        np.maximum(quad, 0.0, out=quad)
        quad *= -0.5
        return np.exp(quad, out=quad)
    lead, s = split
    head = np.einsum("ni,ni->n", lead @ cov[:-1, :-1], lead)
    tail = -0.5 * cov[-1, -1] * s
    if uncoupled:
        np.maximum(head, 0.0, out=head)
        head *= -0.5
        tail *= s
        np.minimum(tail, 0.0, out=tail)
        return np.multiply.outer(np.exp(head, out=head), np.exp(tail, out=tail)).reshape(-1)
    # -<t, C t> / 2 = (-C_ss s / 2 - c'a) s - a'C_aa a / 2, clamped at 0
    quad = np.add.outer(-(lead @ cov[:-1, -1]), tail)
    quad *= s
    head *= -0.5
    quad += head[:, None]
    np.minimum(quad, 0.0, out=quad)
    return np.exp(quad, out=quad).reshape(-1)


def atom_sum(atoms: np.ndarray, weights: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """sum_j w_j exp(i<t, x_j>) / sum_j w_j for each row t of ``pts``, with
    the atoms x_j the rows of ``atoms``.

    A uniformly spaced 1-d probe axis t_k = t_0 + k dt (``_recurrence_axis``)
    takes fresh cos/sin only every ``_RESEED`` probes and gets the probes in
    between by complex multiplies with exp(i dt x_j); on a mirror-symmetric
    axis only the second half is summed and the first is its conjugate.
    The recurrence moves each phase by at most a small multiple of
    eps |x_j| max|t|, the size of the rounding of x_j t itself.

    d >= 2 probes that are whole rows of a tensor lattice, the
    ``charfn.LatticeRows`` blocks ``mollify`` fills (``_lattice_split``:
    one set of last-axis coordinates shared by every row, the leading
    coordinates constant within a row), factor as
    exp(i<t_lead, x_lead>) exp(i t_last x_last): cos/sin of the rows' and
    of the row's phases separately, then one complex matrix product per
    atom chunk (``_lattice_sums``), so the trig work is atoms x
    (rows + row length) instead of atoms x rows x row length.  The
    closed forms of ``Gaussian``, ``UniformBox`` and ``Product`` read the
    same layout (``_gaussian_modulus``, ``_axis_product``).  Every other
    probe set, an exact lattice passed as a plain array among them, takes
    cos and sin of every phase (``_trig_sums``).

    Every branch takes the atoms in chunks whose phase arrays hold about
    ``ATOM_BLOCK`` elements, so memory does not grow with the atom count.
    The sums are divided by the weight total, and every row at t = 0 is set
    to that ratio's exact value, 1: chi(0) is exactly 1 for any chunking,
    whether or not t = 0 is a fresh cos/sin row.
    """
    axis = _recurrence_axis(pts)
    if axis is not None:
        first, dt = axis
        num = np.empty(len(pts), dtype=complex)
        num[first:] = _recurrence_sums(atoms[:, 0], weights, pts[first:, 0], dt)
        np.conj(num[::-1][:first], out=num[:first])
    elif (split := _lattice_split(pts)) is not None:
        num = _lattice_sums(atoms, weights, *split)
    else:
        num = _trig_sums(atoms, weights, pts)
    total = weights.sum()
    np.divide(num.real, total, out=num.real)
    np.divide(num.imag, total, out=num.imag)
    num[~pts.any(axis=1)] = 1.0
    return num


def _running_products(factors) -> tuple[np.ndarray, np.ndarray]:
    """1, f_1, f_1 f_2, ... for the positive ``factors``, as mantissas in
    [0.5, 1) and exponents of two (``math.frexp``), so that no product
    overflows or underflows.  A step rounds only when the product needs
    more than 53 bits: factorials up to 22! and powers of 1/2 are exact."""
    m, e = 0.5, 1
    mant, expo = [m], [e]
    for f in factors:
        m, step = math.frexp(m * f)
        e += step
        mant.append(m)
        expo.append(e)
    return np.array(mant), np.array(expo)


def _sum_law(x: np.ndarray, w: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Atoms sum_j c_j x_j and weights n!/prod_j c_j! prod_j w_j^c_j of the
    sum of n i.i.d. draws from atoms x_j with weights w_j > 0, one per
    count vector c (c_j >= 0, sum_j c_j = n).

    The count vectors are built by convolving over the atoms: a partial
    vector over atoms 0..j-1 that has used u < n terms takes each
    c_j = 0..n-u (the last atom takes n - u), and a vector leaves the walk
    once it has used all n terms.  So the work is the number of count
    vectors, never the k^n ordered sequences.  The weights are kept in log
    space base two: the numerator n! prod_j w_j^c_j and the denominator
    prod_j c_j! as mantissas and exponents (``_running_products``), divided
    once and normalized at the end.  No weight overflows at any n, and one
    whose factors are exact is exact: C(n, c) / 2^n for a Rademacher sum
    while n! needs at most 53 bits.
    """
    fact_m, fact_e = _running_products(range(1, n + 1))
    # per partial count vector: terms used, sum_j c_j x_j, the numerator
    # and denominator mantissas, and the exponent of their ratio
    used, total = np.zeros(1, dtype=np.intp), np.zeros(1)
    num, den, expo = fact_m[n:], np.ones(1), fact_e[n:]
    done = []
    for j, (xj, wj) in enumerate(zip(x.tolist(), w.tolist())):
        pow_m, pow_e = _running_products(itertools.repeat(wj, n))
        if j == len(x) - 1:
            c = n - used
        else:
            reps = n - used + 1
            parent = np.repeat(np.arange(len(used)), reps)
            c = np.arange(len(parent)) - np.repeat(np.cumsum(reps) - reps, reps)
            used, total, num, den, expo = (a[parent] for a in (used, total, num, den, expo))
        used = used + c
        total = total + c * xj
        num, num_e = np.frexp(num * pow_m[c])
        den, den_e = np.frexp(den * fact_m[c])
        expo = expo + (pow_e[c] - fact_e[c]) + (num_e - den_e)
        full = used == n
        done.append((total[full], num[full] / den[full], expo[full]))
        rest = ~full
        used, total, num, den, expo = (a[rest] for a in (used, total, num, den, expo))
    total, mant, expo = (np.concatenate(parts) for parts in zip(*done))
    weights = np.ldexp(mant, expo - expo.max())
    return total, weights / weights.sum()


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
        """exp(i<a,t> - <t,Ct>/2); integrable when C is positive definite.
        A zero mean has no phase, and chi is then real (float64)."""
        mean, cov = self.mean, self.cov
        centred = not mean.any()
        uncoupled = not cov[-1, :-1].any()

        def ev(pts: np.ndarray) -> np.ndarray:
            modulus = _gaussian_modulus(cov, uncoupled, pts)
            if centred:
                return modulus
            vals = cis(pts @ mean)
            vals *= modulus
            return vals

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
            return cis(pts @ location)

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
        box centre and w its half-widths (``_axis_product``); the phase is
        skipped where c_j = 0, so a centred box has a real chi (float64)."""
        center = 0.5 * (self.lo + self.hi)
        half = 0.5 * (self.hi - self.lo)
        factors = [functools.partial(_box_axis, h, c) for h, c in zip(half, center)]
        return CharFn(self.dim, lambda pts: _axis_product(factors, pts), "unknown", self.json_type)

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
        """1/(1 + b^2 t^2), real (float64) and integrable."""
        scale = self.scale

        def ev(pts: np.ndarray) -> np.ndarray:
            t = pts[:, 0]
            return 1.0 / (1.0 + (scale * t) ** 2)

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
        """sum_j w_j exp(i<t,x_j>) (``atom_sum``: by its phase recurrence on
        uniform 1-d blocks such as a 1-d lattice's, and factored over the
        rows of 2-d and 3-d lattice blocks); atoms, so never integrable."""
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
        """chi_inner(A^T t) exp(i<b,t>), with no phase factor when b = 0.
        A square A of full rank keeps the inner integrability flag (the
        substitution u = A^T t); any other A gives "unknown".  A diagonal A
        maps a ``charfn.LatticeRows`` block onto one (``_lattice_split``):
        its rows' leading coordinates and the shared last-axis nodes scaled
        axis by axis, the same values as t A."""
        inner, matrix, shift = self.inner.cf(), self.matrix, self.shift
        shifted = shift.any()
        invertible = matrix.shape[1] == self.dim and np.linalg.matrix_rank(matrix) == self.dim
        flag = inner.integrable if invertible else "unknown"
        scale = np.diag(matrix)
        diagonal = matrix.shape[1] == self.dim and np.array_equal(matrix, np.diag(scale))

        def ev(pts: np.ndarray) -> np.ndarray:
            split = _lattice_split(pts) if diagonal else None
            if split is None:
                vals = inner.batch_eval(pts @ matrix)
            else:
                lead, last = split
                vals = inner.batch_eval(LatticeRows(pts * scale, lead * scale[:-1], last * scale[-1]))
            return vals * cis(pts @ shift) if shifted else vals

        return CharFn(self.dim, ev, flag, self.json_type)

    def draw(self, n: int, seq: np.random.SeedSequence) -> np.ndarray:
        return self.inner.draw(n, seq.spawn(1)[0]) @ self.matrix.T + self.shift


@dataclass(frozen=True)
class StandardizedIIDSum(DistributionSpec, type="standardized_iid_sum"):
    """Law of (X_1 + ... + X_n)/sqrt(n) for i.i.d. draws from ``base``.

    The base must be one-dimensional with mean 0 and variance 1.  That
    standardization is declared by the caller and is not inferred or
    checked; a wrong declaration silently shifts/scales the limit.  ``n``
    must be an integer (4 or 4.0, not 2.7).

    Over an ``Empirical`` base with at most ``_SUM_LAW_CAP`` count vectors
    the draws come from the exact finite law of the sum (``sum_law``: its
    distinct values in ascending order), one uniform per draw on the
    parent stream; for the same seed these batches differ from those of
    versions that summed n base draws.  Any other base, or one over the
    cap, still adds n base draws taken from n child streams.
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
        """chi_base(t/sqrt(n))^n; integrable when the base is, since
        |chi_base(t/sqrt(n))|^n <= |chi_base(t/sqrt(n))|."""
        base, n = self.base.cf(), self.n
        root = math.sqrt(n)

        def ev(pts: np.ndarray) -> np.ndarray:
            return base.batch_eval(pts / root) ** n

        flag = "yes" if base.integrable == "yes" else "unknown"
        return CharFn(1, ev, flag, self.json_type)

    def sum_law(self) -> Empirical | None:
        """The exact law of the standardized sum when the base is an
        ``Empirical`` whose nonzero-weight atoms give at most
        ``_SUM_LAW_CAP`` count vectors (``_sum_law``; for n = 1 those
        atoms themselves), else None.  It is built on the first call and
        kept on the spec, so repeated draws do not rebuild it.

        Its atoms are the distinct values of the sum in ascending order,
        count vectors with equal sums merged, so a draw is the quantile of
        its uniform and the stream depends on the law alone, not on the
        order in which the count vectors were built."""
        return self._law

    @functools.cached_property
    def _law(self) -> Empirical | None:
        base, n = self.base, self.n
        if not isinstance(base, Empirical):
            return None
        keep = base.weights > 0
        x, weights = base.points[keep, 0], base.weights[keep]
        if math.comb(n + len(x) - 1, len(x) - 1) > _SUM_LAW_CAP:
            return None
        if n > 1:
            total, weights = _sum_law(x, weights, n)
            x = total / math.sqrt(n)
        x, which = np.unique(x, return_inverse=True)
        return Empirical(points=x[:, None], weights=np.bincount(which, weights=weights))

    def draw(self, n: int, seq: np.random.SeedSequence) -> np.ndarray:
        law = self.sum_law()
        if law is not None:
            return law.draw(n, seq)
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
        """Product over axes of the factor CFs (``_axis_product``), real
        when every factor's is; integrable when every factor is (Fubini)."""
        factors = [f.cf() for f in self.factors]
        evals = [lambda t, f=f: f.batch_eval(t[:, None]) for f in factors]
        flag = "yes" if all(f.integrable == "yes" for f in factors) else "unknown"
        return CharFn(self.dim, lambda pts: _axis_product(evals, pts), flag, self.json_type)

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
