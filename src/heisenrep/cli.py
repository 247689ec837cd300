"""Command-line entry point for the verification harness.

Exit codes: 0 all selected checks pass, 1 at least one check fails,
2 configuration error (bad flag, bad config file, unknown suite, a window
the runner finds cannot resolve a check, or any other typed library error
the configuration leads to), 3 internal error (any other exception; its
type and message, then its traceback, go to stderr).
"""

from __future__ import annotations

import argparse
import json
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
    parser.add_argument("--config",
                        help="JSON object keyed by SuiteConfig fields; flags override its entries")
    parser.add_argument("--suite", choices=SUITE_IDS,
                        help="run a single suite (default: all, in canonical order)")
    parser.add_argument("--grid-size", dest="size", type=int,
                        help="number of samples N (power of two)")
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
    """SuiteConfig fields from the config file's object, updated by each
    flag given (a flag's dest is the field it sets), with the --tolerance
    pairs merged over the file's tolerances."""
    settings = {}
    if args.config:
        try:
            with open(args.config) as fh:
                settings = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigurationError(f"cannot read config file: {exc}") from exc
        if not isinstance(settings, dict):
            raise ConfigurationError("config file must hold a JSON object")
    settings.update((key, value) for key, value in vars(args).items()
                    if value is not None and key not in ("config", "tolerance"))
    tolerances = settings.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ConfigurationError(f"config 'tolerances' must be an object, got {tolerances!r}")
    settings["tolerances"] = {**tolerances, **dict(map(_parse_tolerance, args.tolerance))}
    return settings


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        base = SuiteConfig.from_settings(load_settings(args))
        reports = run_all(base) if base.suite is None else [run_suite(base)]
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
