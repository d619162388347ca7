"""Command-line front end.

Subcommands:

    simulate-lti   Monte Carlo study of the constant-parameter plant
    simulate-ltv   same with bounded sinusoidal parameter drift
    estimate       run one estimator over a dataset CSV
    analyze-pe     excitation/stability diagnostics for a dataset CSV
    sweep-lambda   forgetting-factor sweep of averaged final widths

Options can come from a flat key=value file via --config; explicit
flags always override the file.  Outputs are plain CSV/text files under
--out and are byte-identical for identical configuration and seed,
regardless of worker count.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict
from functools import partial

import numpy as np

from .data import Dataset, _write_table
from .experiment import (
    estimate_from_csv,
    lambda_sweep,
    run_experiment,
    write_experiment,
    write_sweep,
)
from .lti import EstimatorSpec
from .pe import analyze
from .simulate import REFERENCE_LTV, SimConfig

__all__ = ["main", "build_parser"]


def _parse_floats(text: str) -> tuple:
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}")


def _parse_mode(text: str):
    text = text.strip()
    if text == "exact":
        return None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"modes must be 'exact' or integers, got {text!r}"
        ) from None


def _parse_modes(text: str) -> tuple:
    return tuple(_parse_mode(part) for part in text.split(","))


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


# The settings sweep-lambda sets itself, so it offers no flag for them.
_SWEPT = ("lam", "monotonic")
# The reference study of either plant, by `ltv`, built once on import.
_REFERENCES = (asdict(SimConfig()), asdict(REFERENCE_LTV))


def _defaults(ltv: bool, fixed=()) -> dict:
    """Every setting of the reference study of either plant, in `_FLAGS`
    order, but the seed and `fixed`; only the drifting one has the drift
    settings."""
    drift = ("drift_radius", "drift_period")
    study = _REFERENCES[ltv]
    return {k: study[k] for k in _FLAGS if k not in fixed and (ltv or k not in drift)}


def _show(value) -> str:
    """A default as the help text shows it: the flag's own syntax."""
    if isinstance(value, tuple):
        return ",".join("exact" if v is None else _show(v) for v in value)
    if isinstance(value, bool):
        return str(value).lower()
    return format(value, "g") if isinstance(value, float) else str(value)


# Flag, value type and help text of each setting; the help text ends in
# the default the subcommand starts from.
_FLAGS = {
    "theta_true": ("--theta-true", _parse_floats, "true parameters"),
    "n_a": ("--na", int, "output lags"),
    "n_b": ("--nb", int, "input lags"),
    "noise_half_width": ("--noise-half-width", float, "noise bound a, v in [-a, a]"),
    "horizon": ("--horizon", int, "steps per run"),
    "runs": ("--runs", int, "Monte Carlo runs"),
    "lam": ("--lambda", float, "forgetting factor"),
    "p0_scale": ("--p0-scale", float, "P(0) = p0_scale * I"),
    "prior_radius": ("--prior-radius", float, "prior box half-width around 0"),
    "modes": ("--modes", _parse_modes, "comma list of windows, 'exact' for full memory"),
    "monotonic": ("--monotonic", _parse_bool, "refine boxes by running intersection"),
    "drift_radius": ("--drift-radius", _parse_floats, "per-component drift bound"),
    "drift_period": ("--drift-period", float, "sinusoid period of the drift"),
    "workers": ("--workers", int, "parallel processes for the runs"),
}


def _add_settings(sub: argparse.ArgumentParser, keys, defaults: dict, suppress=False) -> None:
    """Add the flags of `keys`.  With suppress=True an absent flag leaves no
    attribute, so `_effective_config` can tell it from an explicit one."""
    for key in keys:
        flag, kind, text = _FLAGS[key]
        sub.add_argument(flag, dest=key, type=kind,
                         default=argparse.SUPPRESS if suppress else defaults[key],
                         help=f"{text} (default {_show(defaults[key])})")


def _add_sim_arguments(sub: argparse.ArgumentParser, ltv: bool, fixed=()) -> None:
    sub.add_argument("--seed", type=int, required=True, help="base seed; run k uses seed+k")
    sub.add_argument("--out", required=True, help="output directory")
    sub.add_argument("--config", help="flat key=value file; flags override it")
    defaults = _defaults(ltv, fixed)
    _add_settings(sub, defaults, defaults, suppress=True)


def _effective_config(args, ltv: bool, fixed=()) -> SimConfig:
    """SimConfig from defaults, then the --config file, then explicit flags.

    File values are converted by the type of the flag of the same key, so
    the file and the command line accept the same text.  A `fixed` setting
    has neither flag nor key and keeps its default.
    """
    defaults = _defaults(ltv, fixed)
    effective = dict(defaults)
    if getattr(args, "config", None):
        for key, raw in _read_config_file(args.config).items():
            if key not in defaults:
                raise ValueError(
                    f"unknown config key '{key}' (valid: {', '.join(sorted(defaults))})"
                )
            try:
                effective[key] = _FLAGS[key][1](raw)
            except (argparse.ArgumentTypeError, ValueError) as exc:
                raise ValueError(f"{args.config}: {key}: {exc}") from exc
    for key in defaults:
        if hasattr(args, key):
            effective[key] = getattr(args, key)
    return SimConfig(seed=args.seed, **effective)


def _read_config_file(path) -> dict:
    data, lines = {}, {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            if not sep:
                raise ValueError(f"{path}: line {lineno}: expected key=value")
            if key in data:  # one value would silently win
                raise ValueError(f"{path}: key '{key}' is given more than once, "
                                 f"on lines {lines[key]} and {lineno}")
            data[key], lines[key] = value.strip(), lineno
    return data


def _cmd_simulate(args, ltv: bool) -> int:
    config = _effective_config(args, ltv)
    os.makedirs(args.out, exist_ok=True)
    result = run_experiment(config, dataset_dir=args.out if args.write_datasets else None)
    paths = write_experiment(result, args.out)
    written = len(paths) + (config.runs if args.write_datasets else 0)
    for label, avg in result.averages.items():
        joined = ", ".join(format(w, ".6g") for w in avg.final_width)
        print(f"{label}: final averaged width [{joined}]")
    ok = result.all_contained
    print(f"containment audit over {config.runs} runs: {'PASS' if ok else 'FAIL'}")
    print(f"wrote {written} files to {args.out}")
    return 0 if ok else 1


def _cmd_estimate(args) -> int:
    spec = EstimatorSpec(lam=args.lam, p0_scale=args.p0_scale, prior_radius=args.prior_radius,
                         modes=(args.m,), monotonic=args.monotonic)
    out_path = os.path.join(args.out, "estimates.csv")
    audit = estimate_from_csv(args.input, out_path, spec)
    print(f"wrote {out_path}")
    if audit is None:
        print("no true trajectory in input; containment not audited")
        return 0
    refined = "n/a" if audit.refined_contained is None else str(audit.refined_contained)
    print(
        f"containment audit: raw={audit.raw_contained} refined={refined} "
        f"inconsistent_steps={audit.inconsistent_steps}"
    )
    return 0 if audit.contained else 1


def _cmd_analyze_pe(args) -> int:
    spec = EstimatorSpec(lam=args.lam, p0_scale=args.p0_scale)
    window = args.window
    if window is not None and window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    dataset = Dataset.from_csv(args.input)
    window = 2 * dataset.n if window is None else window
    if window > dataset.N:
        raise ValueError(f"window must be at most the {dataset.N} samples of the dataset, "
                         f"got {window}")
    noise_radius = np.maximum(np.abs(dataset.v_low), np.abs(dataset.v_high))
    report = analyze(
        dataset.X,
        lam=spec.lam,
        P0=spec.p0_scale * np.eye(dataset.n),
        T=window,
        noise_radius=noise_radius,
    )
    os.makedirs(args.out, exist_ok=True)
    txt_path = os.path.join(args.out, "pe_report.txt")
    csv_path = os.path.join(args.out, "pe_report.csv")
    text = report.to_kv_text()
    with open(txt_path, "w", newline="") as fh:
        fh.write(text)
    names, values = zip(*(line.split("=") for line in text.splitlines()))
    _write_table(csv_path, ("quantity", "value"), [names, values])
    sys.stdout.write(text)
    print(f"wrote {txt_path} and {csv_path}")
    return 0


def _cmd_sweep(args) -> int:
    config = _effective_config(args, ltv=False, fixed=_SWEPT)
    rows = lambda_sweep(config, args.lambdas)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "sweep.csv")
    write_sweep(rows, path)
    for row in rows:
        joined = ", ".join(format(w, ".6g") for w in row.final_width)
        print(f"lambda={row.lam:g} {row.label}: final averaged width [{joined}]")
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ivrls",
        description="Guaranteed interval estimates around recursive least squares.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, ltv, text in (
        ("simulate-lti", False, "Monte Carlo study, constant parameters"),
        ("simulate-ltv", True, "Monte Carlo study, drifting parameters"),
    ):
        study = sub.add_parser(name, help=text)
        _add_sim_arguments(study, ltv)
        study.add_argument("--write-datasets", action="store_true",
                           help="also write each run's dataset CSV")
        study.set_defaults(func=partial(_cmd_simulate, ltv=ltv))

    est = sub.add_parser("estimate", help="run one estimator over a dataset CSV")
    est.add_argument("--in", dest="input", required=True, help="dataset CSV path")
    est.add_argument("--out", required=True, help="output directory")
    defaults = _defaults(False)
    _add_settings(est, ("lam", "p0_scale", "prior_radius"), defaults)
    est.add_argument("--m", type=_parse_mode, default=None,
                     help="truncation window, or 'exact' (default exact)")
    _add_settings(est, ("monotonic",), defaults)
    est.set_defaults(func=_cmd_estimate)

    pe = sub.add_parser("analyze-pe", help="excitation diagnostics for a dataset CSV")
    pe.add_argument("--in", dest="input", required=True, help="dataset CSV path")
    pe.add_argument("--out", required=True, help="output directory")
    _add_settings(pe, ("lam", "p0_scale"), defaults)
    pe.add_argument("--window", type=int, default=None,
                    help="excitation window T (default 2n)")
    pe.set_defaults(func=_cmd_analyze_pe)

    # no abbreviations: --lambda would be read as --lambdas
    sweep = sub.add_parser("sweep-lambda", help="forgetting-factor sweep", allow_abbrev=False)
    _add_sim_arguments(sweep, ltv=False, fixed=_SWEPT)
    sweep.add_argument("--lambdas", type=_parse_floats, required=True,
                       help="comma list of forgetting factors")
    sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
