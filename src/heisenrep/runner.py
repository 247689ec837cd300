"""Batch harness: run suites, assemble reports, write JSON/CSV artifacts.

Reports are deterministic for a fixed config: keys are sorted, floats keep
their shortest round-trip representation, and nothing environment-dependent
(timestamps, paths, host data) is recorded.  Running the same config twice
yields byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np

from . import __version__
from .errors import ConfigurationError, HeisenrepError
from .suites import CHECKS, SUITE_IDS, SUITES, Recorder, SuiteConfig


def build_report(suite_id: str, config: SuiteConfig, recorder: Recorder) -> dict:
    # every setting except which suite runs and where its files go
    environment = dataclasses.asdict(config)
    for name in ("suite", "out", "emit_csv"):
        del environment[name]
    return {
        "suite": suite_id,
        "environment": {**environment, "version": __version__},
        "checks": recorder.checks,
        "overall_pass": all(c["pass"] for c in recorder.checks),
    }


def run_suite(config: SuiteConfig) -> dict:
    """Run config.suite alone; a config without a suite is refused."""
    if config.suite is None:
        raise ConfigurationError("run_suite needs config.suite; run_all runs every suite")
    return _run(config, [config.suite])[0]


def run_all(base_config: SuiteConfig) -> list[dict]:
    """Run every suite with the shared settings of base_config, in the
    canonical order (sequentially, so artifact bytes never depend on
    scheduling)."""
    return _run(base_config, SUITE_IDS)


def _run(base: SuiteConfig, suite_ids) -> list[dict]:
    """Refuse tolerance keys that name no catalogued check of the suites
    before any of them runs, run each suite with the other settings of base,
    and only then write reports and curves, so a refused run writes no file.
    Every suite is handed base itself (no suite reads base.suite), so one
    run builds one grid and one dual.  Each suite runs with numpy's overflow,
    0/0 and division by zero raising (underflow, as of e^{-y^2/2}, stays
    quiet); an ArithmeticError means the window cannot resolve the check
    being measured.  It is refused as a ConfigurationError, and a suite's
    HeisenrepError as its own type, each naming the suite, check and window."""
    # a tolerance key is a check id; one that names no check of the suites
    # (a typo, or a check of a suite not selected) would set nothing
    unknown = set(base.tolerances) - {c.id for s in suite_ids for c in CHECKS[s]}
    if unknown:
        raise ConfigurationError(f"tolerances {sorted(unknown)} name no check of the suites run")
    runs = []
    for suite_id in suite_ids:
        recorder = Recorder(base, suite_id)
        try:
            with np.errstate(all="raise", under="ignore"):
                SUITES[suite_id](base, recorder)
        except (ArithmeticError, HeisenrepError) as exc:
            # suites record in catalogue order: the check after the last recorded
            pending = CHECKS[suite_id][len(recorder.checks):]
            at = f"check {pending[0].id}" if pending else "after its last check"
            refusal = type(exc) if isinstance(exc, HeisenrepError) else ConfigurationError
            raise refusal(
                f"suite {suite_id}, {at}: {exc} on the grid with "
                f"half_width={base.half_width}, size={base.size}") from exc
        runs.append((build_report(suite_id, base, recorder), recorder.curves))
    if base.out:
        for report, curves in runs:
            write_report(report, base.out)
            if base.emit_csv:
                write_curves(report["suite"], curves, base.out)
    return [report for report, _ in runs]


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_report(report: dict, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{report['suite']}.json")
    with open(path, "w") as fh:
        fh.write(report_json(report))
    return path


def write_curves(suite_id: str, curves: dict, out_dir: str) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, rows in sorted(curves.items()):
        path = os.path.join(out_dir, f"{suite_id}_{name}.csv")
        with open(path, "w") as fh:
            fh.write("parameter,value\n")
            for a, b in rows:
                fh.write(f"{a!r},{b!r}\n")
        paths.append(path)
    return paths


def summarize(reports: list[dict]) -> str:
    lines = []
    for rep in reports:
        for c in rep["checks"]:
            status = "PASS" if c["pass"] else "FAIL"
            lines.append(
                f"[{status}] {rep['suite']}/{c['check']}: "
                f"measured={c['measured']:.6g} threshold={c['threshold']:.6g}"
            )
        overall = "PASS" if rep["overall_pass"] else "FAIL"
        lines.append(f"[{overall}] {rep['suite']} overall")
    return "\n".join(lines)
