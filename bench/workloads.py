"""The benchmark's workloads, each a deck of tasks built from a seed.

A task is one closed-loop call into cfmoll (the part that is timed) plus a
check of its output against ``refs`` (not timed).  The runner cycles
through the deck, so every task repeats within a run and its output bytes
must repeat too.  Seeds move grid windows, evaluation points, atoms,
variances and Monte Carlo seeds; the kinds and sizes in a deck, and so its
cost profile, are fixed per workload.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import cfmoll as cm
from cfmoll import Grid, MollificationParams

import refs

WORKLOADS = ("invert-1d", "smooth-nd", "certify")


@dataclass
class Task:
    kind: str
    key: str
    run: Callable[[Any], Any]                        # api -> output
    check: Callable[[Any], list[tuple[float, float]]]  # output -> [(error, tolerance)]; raises on failure
    digest: Callable[[Any], bytes]
    prepare: Callable[[], Any] | None = None         # untimed input set-up


def _interleave(groups: list[list[Task]]) -> list[Task]:
    """Spread each group evenly over the deck, so that any prefix of the
    deck holds the kinds in about their deck proportions."""
    keyed = []
    for g, tasks in enumerate(groups):
        for j, t in enumerate(tasks):
            keyed.append(((j + 0.5) / len(tasks), g, t))
    keyed.sort(key=lambda x: (x[0], x[1]))
    return [t for _, _, t in keyed]


# ---------------------------------------------------------------------------
# output digests
# ---------------------------------------------------------------------------

def _field_bytes(f) -> bytes:
    return json.dumps([f.grid.to_dict(), f.normalized]).encode() + f.values.tobytes()


def _float_bytes(x) -> bytes:
    return struct.pack("<d", x)


def _report_bytes(r) -> bytes:
    return json.dumps(r.to_dict(), sort_keys=True).encode()


def _cli_bytes(out) -> bytes:
    rc, text, files = out
    h = hashlib.sha256(f"{rc}\n{text}".encode())
    for data in files:
        h.update(data)
    return h.digest()


def _cli(api, argv: list[str], outputs: list[Path]):
    """Run the CLI in-process; returns (exit code, stdout, output file bytes)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = api.cli_main(argv)
    return rc, buf.getvalue(), [p.read_bytes() for p in outputs if rc == 0]


def _csv_columns(data: bytes) -> np.ndarray:
    return np.loadtxt(io.BytesIO(data), delimiter=",", skiprows=1, ndmin=2)


def _field_err(field, ref: np.ndarray) -> float:
    return float(np.max(np.abs(field.values - ref)))


# ---------------------------------------------------------------------------
# invert-1d: direct inversion of 1-d integrable laws, workers = 1
# ---------------------------------------------------------------------------

def _invert_1d(rng: np.random.Generator, work: Path, workers: int) -> list[Task]:
    p10 = MollificationParams(tail_tol=1e-10)
    short, points, long_ = [], [], []

    # acceptance-04 style: Gaussian N(0, 1 + 1/k^2) on 513..2049 points
    sizes = np.linspace(513, 2049, 12).round().astype(int)
    grids = []
    for i, (n, k) in enumerate(zip(sizes, rng.permutation(np.arange(1, 13)))):
        var = 1.0 + 1.0 / float(k) ** 2
        half = 10.0 + float(rng.uniform(-0.5, 0.5))
        grid = Grid(axes=((-half, half, int(n)),))
        cf = cm.make_cf(cm.Gaussian(mean=[0.0], cov=[[var]]))
        grids.append((cf, grid, var))
        short.append(Task(
            "accept04_gauss_grid", f"g{i}",
            lambda api, cf=cf, grid=grid: api.invert_density_grid(api.cf(cf), grid, p10),
            lambda out, grid=grid, var=var: [
                (_field_err(out, refs.gauss_1d(grid.axis_points(0), 0.0, var)), refs.TOL_CLOSED_FORM)],
            _field_bytes,
        ))

    # pointwise inversion at a grid node: must match the grid value
    for i, g in enumerate(rng.choice(len(grids), size=2, replace=False)):
        cf, grid, var = grids[int(g)]
        idx = int(rng.integers(grid.shape[0] // 4, 3 * grid.shape[0] // 4))
        z = float(grid.axis_points(0)[idx])

        def check(out, cf=cf, grid=grid, idx=idx, z=z, var=var):
            on_grid = cm.invert_density_grid(cf, grid, p10).values[idx]
            return [(abs(out - on_grid), refs.TOL_GRID_POINT),
                    (abs(out - float(refs.gauss_1d(z, 0.0, var))), refs.TOL_CLOSED_FORM)]

        points.append(Task(
            "gauss_point", f"p{i}",
            lambda api, cf=cf, z=z: api.invert_density_at(api.cf(cf), [z], p10),
            check, _float_bytes,
        ))

    # long axis (~1.3M-node factored contraction): Laplace and Uniform * Laplace
    scales = rng.permutation([0.75, 1.0])
    lap = [cm.make_cf(cm.Laplace1D(scale=float(b))) for b in scales]
    lap_grid = Grid(axes=((-6.0, 6.0, 1201),))
    z_lap = lap_grid.axis_points(0)
    long_.append(Task(
        "laplace_grid", "lg",
        lambda api: api.invert_density_grid(api.cf(lap[0]), lap_grid),
        lambda out: [(_field_err(out, refs.laplace(z_lap, scales[0])), refs.TOL_LAPLACE)],
        _field_bytes,
    ))
    a = 1.0 + float(rng.uniform(-0.25, 0.25))
    ul_spec = cm.Convolution(parts=(cm.UniformBox(lo=[-a], hi=[a]), cm.Laplace1D(scale=0.5)))
    ul = cm.make_cf(ul_spec)
    long_.append(Task(
        "unif_laplace_grid", "ulg",
        lambda api: api.invert_density_grid(api.cf(ul), lap_grid),
        lambda out: [(_field_err(out, refs.uniform_conv_laplace(z_lap, -a, a, 0.5)), refs.TOL_LAPLACE)],
        _field_bytes,
    ))
    z_pt = float(rng.uniform(-3.0, 3.0))
    long_.append(Task(
        "laplace_point", "lp",
        lambda api: api.invert_density_at(api.cf(lap[1]), [z_pt]),
        lambda out: [(abs(out - float(refs.laplace(z_pt, scales[1]))), refs.TOL_LAPLACE)],
        _float_bytes,
    ))
    long_.append(Task(
        "laplace_l1_bound", "lb",
        lambda api: api.cf_l1_bound(api.cf(lap[0])),
        lambda out: [(abs(out - 0.5 / scales[0]), refs.TOL_LAPLACE)],
        _float_bytes,
    ))

    # the same inversions through the CLI, which writes the CSV and its sidecar
    cli_specs = [("lap", cm.Laplace1D(scale=float(scales[1])), lambda z: refs.laplace(z, scales[1])),
                 ("ul", ul_spec, lambda z: refs.uniform_conv_laplace(z, -a, a, 0.5))]
    for name, spec, ref in cli_specs:
        spec_path = work / f"{name}.json"
        cm.save_spec(spec, spec_path)
        out_csv = work / f"cli_{name}.csv"
        argv = ["invert", "--spec", str(spec_path), "--grid", "-6:6:1201", "--out", str(out_csv)]
        outputs = [out_csv, out_csv.with_suffix(".meta.json")]

        def check(out, ref=ref):
            rc, _, files = out
            if rc != 0:
                raise RuntimeError(f"cfmoll invert exited {rc}")
            cols = _csv_columns(files[0])
            grid_err = float(np.max(np.abs(cols[:, 0] - z_lap)))
            if grid_err != 0.0 or json.loads(files[1])["grid"] != lap_grid.to_dict():
                raise RuntimeError("CSV lattice or sidecar grid differs from the request")
            return [(float(np.max(np.abs(cols[:, 1] - ref(z_lap)))), refs.TOL_LAPLACE)]

        long_.append(Task(
            "cli_invert", f"ci_{name}",
            lambda api, argv=argv, outputs=outputs: _cli(api, argv, outputs),
            check, _cli_bytes,
        ))
    return _interleave([short, points, long_])


# ---------------------------------------------------------------------------
# smooth-nd: 3-d and 2-d smoothing, grid calls at workers = nproc
# ---------------------------------------------------------------------------

CORR = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]])
PRODUCT_LAPLACE = 0.7


def _nd_laws():
    """(name, spec, reference(pts, sigma)) for the three 3-d laws."""
    eye = np.eye(3)
    return [
        ("gauss", cm.Gaussian(mean=[0.0] * 3, cov=eye.tolist()),
         lambda pts, s: refs.gauss_nd(pts, np.zeros(3), (1.0 + s * s) * eye)),
        ("corr", cm.Gaussian(mean=[0.0] * 3, cov=CORR.tolist()),
         lambda pts, s: refs.gauss_nd(pts, np.zeros(3), CORR + s * s * eye)),
        ("product", cm.Product(factors=(cm.UniformBox(lo=[-1.0], hi=[1.0]),
                                        cm.Laplace1D(scale=PRODUCT_LAPLACE),
                                        cm.Gaussian(mean=[0.0], cov=[[1.0]]))),
         lambda pts, s: (refs.uniform_smoothed(pts[:, 0], -1.0, 1.0, s)
                         * refs.laplace_smoothed(pts[:, 1], PRODUCT_LAPLACE, s)
                         * refs.gauss_1d(pts[:, 2], 0.0, 1.0 + s * s))),
    ]


def _smooth_nd(rng: np.random.Generator, work: Path, workers: int) -> list[Task]:
    # A run holds only 35-50 tasks, so the 11th largest lands on different
    # kinds as the machine speeds up or slows down.  Atom counts in steps of
    # 5 fill the range below the 238^3 grids without gaps, so such a shift
    # moves that order statistic a little, not by a jump.
    heavy, wide, point, emp, csv = [], [], [], [], []
    laws = _nd_laws()
    cfs = [cm.make_cf(spec) for _, spec, _ in laws]

    def grid3():
        half = 6.0 + float(rng.uniform(-0.2, 0.2))
        return Grid(axes=((-half, half, 48),) * 3)

    def grid_task(kind, key, j, sigma):
        grid = grid3()
        ref = laws[j][2]
        return Task(
            kind, key,
            lambda api: api.mollified_density_grid(api.cf(cfs[j]), sigma, grid, None, workers),
            lambda out: [(_field_err(out, ref(grid.points(), sigma)), refs.TOL_CLOSED_FORM)],
            _field_bytes,
        )

    # sigma = 0.5 sets a 238^3 node lattice; separable and non-separable laws apart
    for j, (name, _, _) in enumerate(laws):
        heavy.append(grid_task(f"nd_{name}_238", f"h{j}", j, 0.5))
    for j in range(len(laws)):
        for sigma in (0.7, 1.0):
            wide.append(grid_task("nd_grid_wide_sigma", f"w{j}{sigma}", j, sigma))

    # 3-d pointwise at a grid node: closed form and grid agreement
    for j in range(len(laws)):
        grid = grid3()
        idx = tuple(int(i) for i in rng.integers(16, 32, size=3))
        z = np.array([grid.axis_points(a)[i] for a, i in enumerate(idx)])
        ref = laws[j][2]

        def check(out, j=j, grid=grid, idx=idx, z=z, ref=ref):
            on_grid = cm.mollified_density_grid(cfs[j], 0.7, grid, None, workers).values
            flat = np.ravel_multi_index(idx, grid.shape)
            return [(abs(out - on_grid[flat]), refs.TOL_GRID_POINT),
                    (abs(out - float(ref(z[None, :], 0.7)[0])), refs.TOL_CLOSED_FORM)]

        point.append(Task(
            "nd_point", f"pt{j}",
            lambda api, j=j, z=z: api.mollified_density_at(api.cf(cfs[j]), 0.7, z),
            check, _float_bytes,
        ))

    # 2-d Empirical laws, 10, 15, .., 50 atoms on 64^2.  The atom sets do not depend
    # on the seed: their quadrature error sets err_budget_used here.
    atom_rng = np.random.default_rng(2024)
    grid = Grid(axes=((-5.0, 5.0, 64),) * 2)
    for i, atoms in enumerate(range(10, 55, 5)):
        pts = atom_rng.uniform(-2.0, 2.0, size=(atoms, 2))
        w = atom_rng.uniform(0.5, 1.5, size=atoms)
        w /= w.sum()
        spec = cm.Empirical(points=pts, weights=w)
        cf = cm.make_cf(spec)
        emp.append(Task(
            "empirical_50" if atoms == 50 else "empirical_small", f"e{i}",
            lambda api, cf=cf, grid=grid: api.mollified_density_grid(api.cf(cf), 0.5, grid, None, workers),
            lambda out, grid=grid, spec=spec: [
                (_field_err(out, refs.mixture_nd(grid.points(), spec.points, spec.weights, 0.5)),
                 refs.TOL_CLOSED_FORM)],
            _field_bytes,
        ))

    # CSV output of 48^3 fields; the fields are made once, untimed
    fields = {}
    for i in range(3):
        grid = grid3()
        path = work / f"field{i}.csv"

        def prepare(i=i, grid=grid):
            if i not in fields:
                fields[i] = cm.mollified_density_grid(cfs[i], 1.0, grid, None, workers)
            return fields[i]

        def check(out, path=path, prepare=prepare):
            field = prepare()
            cols = _csv_columns(path.read_bytes())
            coords = float(np.max(np.abs(cols[:, :3] - field.grid.points())))
            if coords != 0.0 or json.loads(out.read_text())["grid"] != field.grid.to_dict():
                raise RuntimeError("CSV lattice or sidecar grid differs from the field")
            if not np.array_equal(cols[:, 3], field.values):
                raise RuntimeError("CSV values do not read back to the field's values")
            return []

        csv.append(Task(
            "csv_write_3d", f"c{i}",
            lambda api, path=path, i=i: api.write_density_csv(fields[i], path),
            check,
            lambda out, path=path: path.read_bytes() + out.read_bytes(),
            prepare,
        ))
    return _interleave([heavy, wide, point, emp, csv])


# ---------------------------------------------------------------------------
# certify: convergence certificates and Monte Carlo cross-checks, workers = 1
# ---------------------------------------------------------------------------

N_SAMPLE = 100_000       # draws for sample, empirical_cf and mc_tail_prob
N_HIST = 1_000_000       # draws for mollified_histogram
RADEMACHER = cm.Empirical(points=[[-1.0], [1.0]], weights=[0.5, 0.5])
UNIFORM_STD = cm.UniformBox(lo=[-refs.SQRT3], hi=[refs.SQRT3])
TARGET = cm.Gaussian(mean=[0.0], cov=[[1.0]])


def _sum_density(base: str, n: int):
    if base == "rademacher":
        atoms, weights = refs.rademacher_sum_atoms(n)
        return lambda z, s: refs.mixture_1d(z, atoms, weights, s)
    return lambda z, s: refs.uniform_sum_smoothed(z, n, s)


def _sum_cf(base: str, n: int):
    return (lambda t: refs.rademacher_sum_cf(t, n)) if base == "rademacher" else (
        lambda t: refs.uniform_sum_cf(t, n))


def _certificate_check(report, bases_ns, grid: Grid, epsilon: float):
    """Every L1 entry against closed-form smoothed densities, every CF sup
    error against closed-form CFs, every remainder against erf."""
    z = grid.axis_points(0)
    h = grid.cell_volume
    # pointwise 1e-6 on each of two fields bounds the Riemann L1 by 2e-6 * (n h)
    l1_tol = 2.0 * refs.TOL_CLOSED_FORM * grid.size * h
    probes = np.linspace(-5.0, 5.0, 129)
    out = []
    for i, (base, n) in enumerate(bases_ns):
        dens = _sum_density(base, n)
        for j, s in enumerate(report.sigma_schedule):
            ref = refs.riemann_l1(dens(z, s), refs.gauss_1d(z, 0.0, 1.0 + s * s), h)
            out.append((abs(report.l1_mollified[i][j] - ref), l1_tol))
        sup = float(np.max(np.abs(_sum_cf(base, n)(probes) - np.exp(-0.5 * probes**2))))
        out.append((abs(report.cf_sup_error[i] - sup), refs.TOL_CLOSED_FORM))
    for k, r in zip(report.k_schedule, report.smoothing_remainder):
        out.append((abs(r - refs.gauss_tail(k * epsilon)), refs.TOL_CLOSED_FORM))
    return out


def _sum_spec(base: str, n: int):
    return cm.StandardizedIIDSum(base=RADEMACHER if base == "rademacher" else UNIFORM_STD, n=n)


def _certify(rng: np.random.Generator, work: Path, workers: int) -> list[Task]:
    cert, cli, mc = [], [], []
    grid = Grid.parse("-8:8:512")
    target = cm.make_cf(TARGET)

    def cert_task(kind, key, bases_ns, ks, epsilon):
        seq = [cm.make_cf(_sum_spec(b, n)) for b, n in bases_ns]
        labels = [n for _, n in bases_ns]
        return Task(
            kind, key,
            lambda api: api.convergence_certificate(
                [api.cf(c) for c in seq], api.cf(target), ks, grid, epsilon, seq_labels=labels),
            lambda out: _certificate_check(out, bases_ns, grid, epsilon),
            _report_bytes,
        )

    for i in range(3):
        eps = 0.1 + float(rng.uniform(-0.02, 0.02))
        cert.append(cert_task("clt_certificate", f"k2_{i}",
                              [("rademacher", n) for n in (4, 16, 64)], [2], eps))
    for i, base in enumerate(("rademacher", "uniform", "rademacher", "uniform")):
        ns = sorted(rng.choice([4, 16, 64, 256], size=3, replace=False).tolist())
        cert.append(cert_task("clt_certificate_k124", f"k124_{i}",
                              [(base, int(n)) for n in ns], [1, 2, 4], 0.1))

    # the CLI: built-in CLT demo, and `converge` with spec files
    demo_out = work / "clt.json"
    cli.append(Task(
        "cli_clt_demo", "demo",
        lambda api: _cli(api, ["clt-demo", "--out", str(demo_out)],
                         [demo_out, demo_out.with_suffix(".csv")]),
        lambda out: _cli_report_check(out, [("rademacher", n) for n in (4, 16, 64)], grid, 0.1),
        _cli_bytes,
    ))
    conv_ns = sorted(rng.choice([4, 16, 64], size=2, replace=False).tolist())
    base = "uniform" if rng.uniform() < 0.5 else "rademacher"
    argv = ["converge"]
    for n in conv_ns:
        path = work / f"sum{n}.json"
        cm.save_spec(_sum_spec(base, int(n)), path)
        argv += ["--spec", str(path)]
    cm.save_spec(TARGET, work / "target.json")
    conv_out = work / "conv.json"
    argv += ["--target", str(work / "target.json"), "--grid", "-8:8:512",
             "--k-schedule", "1,2,4", "--epsilon", "0.1", "--out", str(conv_out)]
    cli.append(Task(
        "cli_converge", "conv",
        lambda api: _cli(api, argv, [conv_out, conv_out.with_suffix(".csv")]),
        lambda out: _cli_report_check(out, [(base, int(n)) for n in conv_ns], grid, 0.1),
        _cli_bytes,
    ))

    # Monte Carlo: every check is a CLT-scale bound
    seeds = rng.integers(1, 2**31, size=16)
    sum_specs = [("rademacher", 16), ("uniform", 16), ("rademacher", 64), ("uniform", 4)]
    for i, (b, n) in enumerate(sum_specs):
        spec = _sum_spec(b, n)
        # E X^4 of a standardized sum: 3 + (base fourth moment - 3) / n
        fourth = 3.0 + ((1.0 if b == "rademacher" else 1.8) - 3.0) / n

        def check(out, fourth=fourth):
            x = out.points[:, 0]
            return [(abs(float(np.mean(x))), refs.mc_tol(1.0, N_SAMPLE)),
                    (abs(float(np.mean(x * x)) - 1.0), refs.mc_tol(math.sqrt(fourth - 1.0), N_SAMPLE))]

        mc.append(Task(
            "mc_sample", f"s{i}",
            lambda api, spec=spec, seed=int(seeds[i]): api.sample(spec, N_SAMPLE, seed),
            check,
            lambda out: out.points.tobytes(),
        ))
    hist_specs = [("rademacher", 16), ("gauss", 0), ("rademacher", 4), ("gauss", 0)]
    for i, (b, n) in enumerate(hist_specs):
        spec = TARGET if b == "gauss" else _sum_spec(b, n)
        dens = (lambda z, s: refs.gauss_1d(z, 0.0, 1.0 + s * s)) if b == "gauss" else _sum_density(b, n)

        def run(api, spec=spec, cf=cm.make_cf(spec), seed=int(seeds[4 + i])):
            hist = api.mollified_histogram(spec, 0.5, grid, N_HIST, seed)
            quad = api.mollified_density_grid(api.cf(cf), 0.5, grid)
            return api.l1_distance(hist, quad), hist

        def check(out, dens=dens):
            l1, _ = out
            return [(l1, _histogram_l1_tol(dens(grid.axis_points(0), 0.5), grid, N_HIST))]

        mc.append(Task(
            "mc_histogram", f"h{i}", run, check,
            lambda out: _float_bytes(out[0]) + out[1].values.tobytes(),
        ))
    probes = np.linspace(-5.0, 5.0, 129)
    for i, (b, n) in enumerate([("uniform", 16), ("rademacher", 64)]):
        spec = _sum_spec(b, n)

        def run(api, spec=spec, seed=int(seeds[8 + i])):
            return api.empirical_cf(api.sample(spec, N_SAMPLE, seed), probes)

        mc.append(Task(
            "mc_empirical_cf", f"ecf{i}", run,
            lambda out, b=b, n=n: [(float(np.max(np.abs(out - _sum_cf(b, n)(probes)))),
                                    refs.ECF_BUDGET / math.sqrt(N_SAMPLE))],
            lambda out: out.tobytes(),
        ))
    for i, (b, n) in enumerate([("gauss", 0), ("rademacher", 16), ("gauss", 0), ("rademacher", 64)]):
        spec = TARGET if b == "gauss" else _sum_spec(b, n)
        r = 1.5 + float(rng.uniform(-0.05, 0.05))
        if b == "gauss":
            p = refs.gauss_tail(r)
        else:
            atoms, weights = refs.rademacher_sum_atoms(n)
            p = float(np.sum(weights[np.abs(atoms) > r]))
        mc.append(Task(
            "mc_tail_prob", f"t{i}",
            lambda api, spec=spec, r=r, seed=int(seeds[10 + i]): api.mc_tail_prob(spec, r, N_SAMPLE, seed),
            lambda out, p=p: [(abs(out - p), refs.mc_tol(math.sqrt(p * (1.0 - p)), N_SAMPLE))],
            _float_bytes,
        ))
    return _interleave([cert, cli, mc])


def _cli_report_check(out, bases_ns, grid: Grid, epsilon: float):
    rc, _, files = out
    if rc != 0:
        raise RuntimeError(f"cfmoll exited {rc}")
    report = cm.ConvergenceReport.from_dict(json.loads(files[0]))
    rows = files[1].decode().strip().splitlines()
    if len(rows) != 1 + len(report.seq_labels) * len(report.k_schedule):
        raise RuntimeError("report CSV row count does not match the report")
    return _certificate_check(report, bases_ns, grid, epsilon)


def _histogram_l1_tol(density: np.ndarray, grid: Grid, n: int) -> float:
    """CLT-scale bound on the L1 distance between a histogram of n draws and
    the density: the mean absolute deviation sum_i sqrt(2 p_i (1 - p_i) / (pi n)),
    plus MC_SIGMAS standard deviations of the sum, plus the midpoint-rule
    binning bias h^2 / 24 * sum |f''| h."""
    h = grid.cell_volume
    p = np.clip(density * h, 0.0, 1.0)
    mean = float(np.sum(np.sqrt(2.0 * p * (1.0 - p) / (math.pi * n))))
    sd = math.sqrt(float(np.sum(p * (1.0 - p))) * (1.0 - 2.0 / math.pi) / n)
    bias = h * h / 24.0 * float(np.sum(np.abs(np.diff(density, 2)))) / h
    return mean + refs.MC_SIGMAS * sd + bias


BUILDERS = {"invert-1d": _invert_1d, "smooth-nd": _smooth_nd, "certify": _certify}


def workers(workload: str, nproc: int) -> int:
    """Thread-pool size of the workload's grid calls."""
    return nproc if workload == "smooth-nd" else 1


def build(workload: str, seed: int, work: Path, nproc: int) -> list[Task]:
    """The workload's deck for this seed; cfmoll sees only what it generates."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return BUILDERS[workload](rng, work, workers(workload, nproc))
