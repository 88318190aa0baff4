"""Command-line front end.

Commands::

    cfmoll invert    --spec f.json --grid -6:6:1201 [--out g.csv]
    cfmoll mollify   --spec f.json --sigma 0.5 --grid -8:8:512 [--out g.csv]
    cfmoll converge  --spec a.json --spec b.json --target t.json
                     --grid -8:8:512 --k-schedule 1,2,4 [--epsilon 0.1]
    cfmoll clt-demo  [--out report.json]
    cfmoll selfcheck [--seed N]

Options may also come from a JSON config file (--config); explicit flags
win over file values.  Exit codes: 0 success, 2 validation error, 3
numeric failure.  Outputs are byte-identical across runs for identical
configs and seeds.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .charfn import make_cf
from .converge import convergence_certificate
from .errors import NumericFailure, ValidationError
from .grids import Grid, MollificationParams, write_density_csv
from .mollify import invert_density_grid, mollified_density_grid
from .selfcheck import run_selfcheck
from .specs import Empirical, Gaussian, StandardizedIIDSum, load_spec

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

_CONFIG_KEYS = (
    "spec",
    "target",
    "grid",
    "sigma",
    "k_schedule",
    "epsilon",
    "out",
    "seed",
    "threads",
    "tail_tol",
    "negativity_tol",
    "nodes",
    "allow_unknown_integrability",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfmoll",
        description="Characteristic-function density recovery and convergence diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, spec_multi=False):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument(
            "--spec",
            action="append" if spec_multi else "store",
            help="distribution spec JSON file" + (" (repeatable)" if spec_multi else ""),
        )
        p.add_argument("--grid", help='grid as "min:max:count[,min:max:count...]"')
        p.add_argument("--out", help="output path")
        p.add_argument("--seed", type=int, help="RNG seed (default 0)")
        p.add_argument(
            "--threads", type=int,
            help="worker cap for grid evaluation; 1-d grids run on one thread "
            "unless the CF decays slowly (lattices over 16384 nodes)",
        )
        p.add_argument("--tail-tol", type=float, dest="tail_tol", help="truncation tail tolerance")
        p.add_argument(
            "--negativity-tol", type=float, dest="negativity_tol",
            help="allowed negative quadrature ripple",
        )
        p.add_argument("--nodes", type=int, help="quadrature nodes per axis (even, >= 16)")

    p = sub.add_parser("invert", help="density from an integrable CF on a grid")
    add_common(p)
    p.add_argument(
        "--allow-unknown-integrability",
        action="store_true",
        default=None,
        help="invert even when integrability is not known",
    )

    p = sub.add_parser("mollify", help="Gaussian-smoothed density on a grid")
    add_common(p)
    p.add_argument("--sigma", type=float, help="smoothing scale (> 0)")

    p = sub.add_parser("converge", help="convergence certificate for a CF sequence")
    add_common(p, spec_multi=True)
    p.add_argument("--target", help="target spec JSON file")
    p.add_argument("--k-schedule", dest="k_schedule", help='increasing ints, e.g. "1,2,4"')
    p.add_argument("--epsilon", type=float, help="tolerance in the smoothing remainder")

    p = sub.add_parser("clt-demo", help="built-in Bernoulli CLT certificate")
    add_common(p)

    p = sub.add_parser("selfcheck", help="run the closed-form invariant suite")
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--seed", type=int, help="probe seed")
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    """File values fill in only where flags were not given."""
    merged: dict = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ValidationError(f"config file not found: {path}")
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ValidationError("config file must hold a JSON object")
        unknown = set(data) - set(_CONFIG_KEYS)
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        merged.update(data)
    for key in _CONFIG_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    return merged


def _params_from(cfg: dict, d: int, sigma: float = 0.0) -> MollificationParams:
    overrides: dict = {"sigma": sigma}
    if cfg.get("tail_tol") is not None:
        overrides["tail_tol"] = float(cfg["tail_tol"])
    if cfg.get("negativity_tol") is not None:
        overrides["negativity_tol"] = float(cfg["negativity_tol"])
    if cfg.get("nodes") is not None:
        overrides["nodes_per_axis"] = int(cfg["nodes"])
    return MollificationParams.for_dimension(d, **overrides)


def _require(cfg: dict, key: str, command: str):
    if cfg.get(key) is None:
        raise ValidationError(f"'{command}' needs --{key.replace('_', '-')}")
    return cfg[key]


def _load_single_spec(cfg: dict, command: str):
    raw = _require(cfg, "spec", command)
    if isinstance(raw, list):
        if len(raw) != 1:
            raise ValidationError(f"'{command}' takes exactly one --spec")
        raw = raw[0]
    return load_spec(raw)


def _cmd_invert(cfg: dict) -> int:
    cf = make_cf(_load_single_spec(cfg, "invert"))
    grid = Grid.parse(_require(cfg, "grid", "invert"))
    params = _params_from(cfg, grid.d)
    field = invert_density_grid(
        cf,
        grid,
        params,
        allow_unknown_integrability=bool(cfg.get("allow_unknown_integrability", False)),
        workers=int(cfg.get("threads") or 1),
    )
    out = Path(cfg.get("out") or "inverted_density.csv")
    write_density_csv(field, out, params)
    print(f"wrote {out} ({grid.size} lattice points, mass {field.riemann_sum:.6f})")
    return EXIT_OK


def _cmd_mollify(cfg: dict) -> int:
    cf = make_cf(_load_single_spec(cfg, "mollify"))
    grid = Grid.parse(_require(cfg, "grid", "mollify"))
    sigma = float(_require(cfg, "sigma", "mollify"))
    if sigma <= 0:
        raise ValidationError(f"--sigma must be positive, got {sigma}")
    params = _params_from(cfg, grid.d, sigma=sigma)
    field = mollified_density_grid(
        cf, sigma, grid, params, workers=int(cfg.get("threads") or 1)
    )
    out = Path(cfg.get("out") or "mollified_density.csv")
    write_density_csv(field, out, params)
    print(f"wrote {out} ({grid.size} lattice points, mass {field.riemann_sum:.6f})")
    return EXIT_OK


def _cmd_converge(cfg: dict) -> int:
    raw_specs = _require(cfg, "spec", "converge")
    if not isinstance(raw_specs, list):
        raw_specs = [raw_specs]
    seq = [make_cf(load_spec(p)) for p in raw_specs]
    target = make_cf(load_spec(_require(cfg, "target", "converge")))
    grid = Grid.parse(_require(cfg, "grid", "converge"))
    raw_ks = _require(cfg, "k_schedule", "converge")
    if isinstance(raw_ks, str):
        try:
            ks = [int(x) for x in raw_ks.split(",")]
        except ValueError as exc:
            raise ValidationError(f"bad --k-schedule {raw_ks!r}: {exc}") from exc
    else:
        ks = [int(x) for x in raw_ks]
    epsilon = float(cfg.get("epsilon") or 0.1)
    report = convergence_certificate(
        seq,
        target,
        ks,
        grid,
        epsilon,
        params=_params_from(cfg, grid.d),
        workers=int(cfg.get("threads") or 1),
    )
    out = Path(cfg.get("out") or "convergence_report.json")
    report.write_json(out)
    report.write_csv(out.with_suffix(".csv"))
    print(f"wrote {out} and {out.with_suffix('.csv')} (final L1 {report.final_l1:.6g})")
    return EXIT_OK


def _cmd_clt_demo(cfg: dict) -> int:
    """Standardized Bernoulli(1/2) sums against the standard normal."""
    rademacher = Empirical(points=[[-1.0], [1.0]], weights=[0.5, 0.5])
    ns = [4, 16, 64]
    seq = [make_cf(StandardizedIIDSum(base=rademacher, n=n)) for n in ns]
    target = make_cf(Gaussian(mean=[0.0], cov=[[1.0]]))
    grid = Grid.parse(cfg.get("grid") or "-8:8:512")
    report = convergence_certificate(
        seq,
        target,
        [2],
        grid,
        float(cfg.get("epsilon") or 0.1),
        params=_params_from(cfg, grid.d),
        seq_labels=ns,
        workers=int(cfg.get("threads") or 1),
    )
    out = Path(cfg.get("out") or "clt_demo_report.json")
    report.write_json(out)
    report.write_csv(out.with_suffix(".csv"))
    l1s = [row[0] for row in report.l1_mollified]
    print(f"wrote {out}; L1 at n={ns}: " + ", ".join(f"{v:.6g}" for v in l1s))
    return EXIT_OK


def _cmd_selfcheck(cfg: dict) -> int:
    results = run_selfcheck(seed=int(cfg.get("seed") or 20240))
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name}: {res.detail}")
        failed += 0 if res.passed else 1
    print(f"{len(results) - failed}/{len(results)} invariants hold")
    return EXIT_OK if failed == 0 else EXIT_NUMERIC


_COMMANDS = {
    "invert": _cmd_invert,
    "mollify": _cmd_mollify,
    "converge": _cmd_converge,
    "clt-demo": _cmd_clt_demo,
    "selfcheck": _cmd_selfcheck,
}


_VALUE_FLAGS = {
    "--config", "--spec", "--target", "--grid", "--sigma", "--k-schedule",
    "--epsilon", "--out", "--seed", "--threads", "--tail-tol",
    "--negativity-tol", "--nodes",
}


def _join_dashed_values(argv: list[str]) -> list[str]:
    """Rewrite ["--grid", "-8:8:256"] as ["--grid=-8:8:256"] so argparse does
    not mistake values with a leading dash for option names."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if tok in _VALUE_FLAGS and nxt is not None and nxt.startswith("-"):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(_join_dashed_values(list(argv)))
    try:
        cfg = _merge_config(args)
        return _COMMANDS[args.command](cfg)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
