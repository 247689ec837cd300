"""Command-line entry point for the verification harness.

Exit codes: 0 all selected checks pass, 1 at least one check fails,
2 configuration error (bad flag, bad config file, unknown suite, or any
other typed library error the configuration leads to), 3 internal error
(any other exception; its type and message, then its traceback, go to
stderr).
"""

from __future__ import annotations

import argparse
import json
import numbers
import sys
import traceback

from .errors import ConfigurationError, HeisenrepError
from .runner import run_all, run_suite, summarize
from .suites import SUITE_IDS, SuiteConfig


def _parse_tolerance(item: str):
    key, sep, value = item.partition("=")
    if not sep or not key:
        raise ConfigurationError(f"--tolerance expects KEY=VALUE, got {item!r}")
    try:
        return key, float(value)
    except ValueError as exc:
        raise ConfigurationError(f"tolerance value {value!r} is not a number") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heisenrep",
        description="Run the numerical verification suites.",
    )
    parser.add_argument("--config", help="JSON config file; flags override its entries")
    parser.add_argument("--suite", choices=SUITE_IDS,
                        help="run a single suite (default: all, in canonical order)")
    parser.add_argument("--grid-size", type=int, help="number of samples N (power of two)")
    parser.add_argument("--half-width", type=float, help="window half-width L")
    parser.add_argument("--tolerance", action="append", default=[], metavar="KEY=VAL",
                        help="override a per-check threshold (repeatable)")
    parser.add_argument("--max-moment", type=int, help="moment orders certified: 0..K")
    parser.add_argument("--epsilon", type=float, help="approximation budget")
    parser.add_argument("--seed", type=int, help="seed for all random draws")
    parser.add_argument("--out", help="directory for JSON reports (and CSVs)")
    parser.add_argument("--emit-csv", action="store_true", default=None,
                        help="also write diagnostic curves as CSV files")
    return parser


def load_settings(args) -> dict:
    settings = {}
    if args.config:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot read config file: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigurationError("config file must hold a JSON object")
        grid = raw.pop("grid", {})
        if not isinstance(grid, dict):
            raise ConfigurationError("config 'grid' must be an object")
        if grid:
            settings["half_width"] = grid.get("L", grid.get("half_width"))
            settings["size"] = grid.get("N", grid.get("size"))
        for key in ("suite", "seed", "max_moment", "epsilon", "out", "emit_csv"):
            if key in raw:
                settings[key] = raw[key]
        tols = raw.get("tolerances", {})
        if not isinstance(tols, dict):
            raise ConfigurationError("config 'tolerances' must be an object")
        for key, value in tols.items():
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigurationError(f"config tolerance {key!r} must be a number, got {value!r}")
        settings["tolerances"] = {str(k): float(v) for k, v in tols.items()}
        unknown = set(raw) - {"suite", "seed", "max_moment", "epsilon", "out",
                              "emit_csv", "tolerances"}
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")

    overrides = {
        "suite": args.suite,
        "half_width": args.half_width,
        "size": args.grid_size,
        "seed": args.seed,
        "max_moment": args.max_moment,
        "epsilon": args.epsilon,
        "out": args.out,
        "emit_csv": args.emit_csv,
    }
    for key, value in overrides.items():
        if value is not None:
            settings[key] = value
    tols = dict(settings.get("tolerances", {}))
    for item in args.tolerance:
        key, value = _parse_tolerance(item)
        tols[key] = value
    settings["tolerances"] = tols
    settings = {k: v for k, v in settings.items() if v is not None}
    return settings


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = load_settings(args)
        suite = settings.pop("suite", None)
        base = SuiteConfig(suite=suite or SUITE_IDS[0], **settings)
        if suite:
            reports = [run_suite(base)]
        else:
            reports = run_all(base)
    except HeisenrepError as exc:
        print(f"configuration error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error ({type(exc).__name__}): {exc}", file=sys.stderr)
        traceback.print_exc()
        return 3
    print(summarize(reports))
    return 0 if all(r["overall_pass"] for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
