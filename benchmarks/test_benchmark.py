"""Self-test of the benchmark.  Run from the repository root:

    python3 -m pytest -q benchmarks/test_benchmark.py

It runs every workload at a tiny size in both modes and checks that each
metric named in BENCHMARK.json is printed with its unit, that the seed-0
work counts reproduce, and that a corrupted op result is counted as a
failure instead of passing.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calibration  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _record(workload: str, trace: int) -> dict:
    path = os.path.join(ROOT, run.OUT_DIR, "results", f"{workload}-seed0-trace{trace}.json")
    with open(path) as fh:
        return json.load(fh)


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_seed0_work_counts():
    # harness-default ignores --tiny: the harness only runs at its default size
    layers = _record("harness-default", 1)["metrics"]
    counts = _record("harness-default", 1)["worker"]["counts"]
    assert layers["transforms.fourier.calls"]["value"] == 10279
    assert counts["fourier_in:suites.generators"] == 8414
    assert layers["grid.SampledFunction.count"]["value"] == 31699
    assert _record("descriptor-closed-form", 1)["metrics"]["transforms.fourier.calls"]["value"] == 0


def test_harness_known_defect_counts_as_failure():
    record = _record("harness-default", 0)
    assert record["correct"] is True
    assert record["failed"] >= record["attempted"] // workloads.HarnessDefault.CHECKS_PER_PASS


def test_loop_times_the_reference():
    wl = workloads.SpectralLarge(0, tiny=True)
    wl.load()
    wl.make_inputs()
    res = worker.measure(wl, 0.5, trace=False)
    assert len(res["iter_s"]) >= 3 and len(res["ref_s"]) >= 2
    assert all(r > 0 for r in res["ref_s"])
    assert res["reference"] in calibration.KINDS


def test_corrupted_fourier_output_is_counted():
    wl = workloads.SpectralLarge(0, tiny=True)
    wl.load()
    wl.make_inputs()
    clean = worker.measure(wl, 0.2, trace=False)
    assert clean["failed"] == 0 and clean["unexpected_total"] == 0

    fourier = wl.hr.transforms.fourier
    sampled = wl.hr.SampledFunction

    def perturbed(f):
        out = fourier(f)
        return sampled(out.grid, out.values * (1.0 + 1e-9))

    patches = tracing.rebind({fourier: perturbed})
    try:
        corrupt = worker.measure(wl, 0.2, trace=False)
    finally:
        tracing.restore(patches)
    assert corrupt["attempted"] >= 3
    assert corrupt["failed"] == corrupt["attempted"]
    assert any("fourier unitarity" in reason for reason in corrupt["unexpected"])
    assert (run.fail_ratio(corrupt["failed"], corrupt["attempted"])
            > run.fail_ratio(clean["failed"], clean["attempted"]))
