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


def _is_real(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _is_int(val) -> bool:
    return _is_real(val) and float(val).is_integer()


def _is_text(val) -> bool:
    return isinstance(val, str)


def _text_or_list(item_check):
    """A check for a string, or for a list whose items pass ``item_check``."""
    return lambda val: _is_text(val) or (isinstance(val, list) and all(map(item_check, val)))


# Every option: the check a config-file value must pass, what the check
# asks for, the help line and the argparse settings of its flag (see
# ``_flag``).  An integer may be written 64 or 64.0, never 64.9.
_OPTIONS = {
    "spec": (_text_or_list(_is_text), "a path or a list of paths",
             "distribution spec JSON file (converge: repeatable)", {"action": "append"}),
    "target": (_is_text, "a path", "target spec JSON file", {}),
    "grid": (_is_text, 'a string such as "-8:8:512"',
             'grid as "min:max:count[,min:max:count...]"', {}),
    "sigma": (_is_real, "a number", "smoothing scale (> 0)", {"type": float}),
    "k_schedule": (_text_or_list(_is_int), "a string or a list of integers",
                   'increasing ints, e.g. "1,2,4"', {}),
    "epsilon": (_is_real, "a number", "tolerance in the smoothing remainder", {"type": float}),
    "out": (_is_text, "a path", "output path", {}),
    "seed": (_is_int, "an integer", "probe seed (default 20240)", {"type": int}),
    "threads": (_is_int, "an integer", "worker threads for grid evaluation (>= 1): 2-d and "
                "3-d lattices are split into slabs; 1-d grids always run on one thread",
                {"type": int}),
    "tail_tol": (_is_real, "a number", "truncation tail tolerance", {"type": float}),
    "negativity_tol": (_is_real, "a number", "allowed negative quadrature ripple",
                       {"type": float}),
    "nodes": (_is_int, "an integer", "quadrature nodes per axis (even, >= 16)", {"type": int}),
    "allow_unknown_integrability": (
        lambda val: isinstance(val, bool), "true or false",
        "invert even when integrability is not known", {"action": "store_true", "default": None},
    ),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


# Flags that take a value: --config and every option that is not a switch.
_VALUE_FLAGS = {"--config"} | {
    _flag(key) for key, (*_, settings) in _OPTIONS.items()
    if settings.get("action") != "store_true"
}


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
        unknown = set(data) - set(_OPTIONS)
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        for key, val in data.items():
            check, wanted, *_ = _OPTIONS[key]
            if val is not None and not check(val):
                raise ValidationError(f"config key '{key}' must be {wanted}, got {val!r}")
        merged.update(data)
    for key in _OPTIONS:
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
        raise ValidationError(f"'{command}' needs {_flag(key)}")
    return cfg[key]


def _load_single_spec(cfg: dict, command: str):
    raw = _require(cfg, "spec", command)
    if isinstance(raw, list):
        if len(raw) != 1:
            raise ValidationError(f"'{command}' takes exactly one --spec")
        raw = raw[0]
    return load_spec(raw)


def _default(cfg: dict, key: str, default):
    """cfg[key], or ``default`` when the key is unset; 0 is a value, not unset."""
    val = cfg.get(key)
    return default if val is None else val


def _threads(cfg: dict) -> int:
    """Worker count; 1 when unset.  Values below 1 are rejected downstream."""
    return int(_default(cfg, "threads", 1))


def _cmd_invert(cfg: dict) -> int:
    cf = make_cf(_load_single_spec(cfg, "invert"))
    grid = Grid.parse(_require(cfg, "grid", "invert"))
    params = _params_from(cfg, grid.d)
    field = invert_density_grid(
        cf,
        grid,
        params,
        allow_unknown_integrability=bool(cfg.get("allow_unknown_integrability", False)),
        workers=_threads(cfg),
    )
    out = Path(cfg.get("out") or "inverted_density.csv")
    write_density_csv(field, out, params)
    print(f"wrote {out} ({grid.size} lattice points, mass {field.riemann_sum:.6f})")
    return EXIT_OK


def _cmd_mollify(cfg: dict) -> int:
    cf = make_cf(_load_single_spec(cfg, "mollify"))
    grid = Grid.parse(_require(cfg, "grid", "mollify"))
    sigma = float(_require(cfg, "sigma", "mollify"))
    params = _params_from(cfg, grid.d, sigma=sigma)
    field = mollified_density_grid(cf, sigma, grid, params, workers=_threads(cfg))
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
    epsilon = float(_default(cfg, "epsilon", 0.1))
    report = convergence_certificate(
        seq,
        target,
        ks,
        grid,
        epsilon,
        params=_params_from(cfg, grid.d),
        workers=_threads(cfg),
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
    grid = Grid.parse(_default(cfg, "grid", "-8:8:512"))
    report = convergence_certificate(
        seq,
        target,
        [2],
        grid,
        float(_default(cfg, "epsilon", 0.1)),
        params=_params_from(cfg, grid.d),
        seq_labels=ns,
        workers=_threads(cfg),
    )
    out = Path(cfg.get("out") or "clt_demo_report.json")
    report.write_json(out)
    report.write_csv(out.with_suffix(".csv"))
    l1s = [row[0] for row in report.l1_mollified]
    print(f"wrote {out}; L1 at n={ns}: " + ", ".join(f"{v:.6g}" for v in l1s))
    return EXIT_OK


def _cmd_selfcheck(cfg: dict) -> int:
    results = run_selfcheck(seed=int(_default(cfg, "seed", 20240)))
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name}: {res.detail}")
        failed += 0 if res.passed else 1
    print(f"{len(results) - failed}/{len(results)} invariants hold")
    return EXIT_OK if failed == 0 else EXIT_NUMERIC


_GRID_KEYS = ("grid", "out", "threads", "tail_tol", "negativity_tol", "nodes")

# Each command: its handler, its help line, and the options it reads.
_COMMANDS = {
    "invert": (
        _cmd_invert, "density from an integrable CF on a grid",
        ("spec",) + _GRID_KEYS + ("allow_unknown_integrability",),
    ),
    "mollify": (
        _cmd_mollify, "Gaussian-smoothed density on a grid", ("spec", "sigma") + _GRID_KEYS,
    ),
    "converge": (
        _cmd_converge, "convergence certificate for a CF sequence",
        ("spec", "target", "k_schedule", "epsilon") + _GRID_KEYS,
    ),
    # epsilon comes from a config file only
    "clt-demo": (_cmd_clt_demo, "built-in Bernoulli CLT certificate", _GRID_KEYS),
    "selfcheck": (_cmd_selfcheck, "run the closed-form invariant suite", ("seed",)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfmoll",
        description="Characteristic-function density recovery and convergence diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, keys) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override its values")
        for key in keys:
            _, _, help_line, settings = _OPTIONS[key]
            p.add_argument(_flag(key), dest=key, help=help_line, **settings)
    return parser


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
        return _COMMANDS[args.command][0](cfg)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
