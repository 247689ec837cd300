"""heisenrep benchmark: run one workload and print its metrics.

    python3 benchmarks/run.py --workload harness-default --seed 0 --seconds 30 --trace 0

Run it from the root of a heisenrep checkout; the library is imported from
`src/`, nothing is built.  `--trace 0` prints the end-to-end metrics of
BENCHMARK.json, `--trace 1` its per-layer metrics.  Human-readable lines come
first; the last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Full results, and the spans of a traced
run, are written under `.bench_build/`.  See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import glob
import importlib.metadata
import json
import os
import statistics
import subprocess
import sys
import time

import calibration

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("harness-default", "spectral-large", "descriptor-closed-form")
SETUP_PROBES = 6          # set-ups in separate processes, besides the measured one
TIME_LIMIT_S = 175.0      # the whole run, probes included
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
OUT_DIR = ".bench_build"


class BenchmarkError(Exception):
    """The run could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p)
    # one process, one client, one thread: BLAS and OpenMP pools fixed at 1
    for var in THREAD_VARIABLES:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], env: dict, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker timed out after {exc.timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchmarkError(f"worker printed no result:\n{proc.stderr.strip()}") from None


def environment(env: dict, seed: int) -> dict:
    src_lines = 0
    for path in glob.glob(os.path.join("src", "**", "*.py"), recursive=True):
        with open(path, "rb") as fh:
            src_lines += fh.read().count(b"\n")
    return {
        "python": sys.version.split()[0],
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "threads": {var: env[var] for var in THREAD_VARIABLES},
        "seed": seed,
        "src_lines": src_lines,
    }


FAIL_RATIO_FLOOR = 1e-6


def fail_ratio(failed: int, attempted: int) -> float:
    """Share of ops that did not succeed, floored at FAIL_RATIO_FLOOR.

    A run attempts far fewer than 10**6 ops, so any failure reads above the
    floor; the floor only keeps a clean run's ratio from being exactly 0.
    """
    return max(failed / attempted, FAIL_RATIO_FLOOR)


def end_to_end(res: dict, probes: list[dict]) -> tuple[dict, list[str]]:
    iter_s, ref_s = res["iter_s"], res["ref_s"]
    mean_k = calibration.scale(ref_s, statistics.fmean)
    setup_k = calibration.scale([p["ref_s"] for p in probes])
    setups = [p["import_s"] + p["inputs_s"] for p in probes]
    bad = res["failed"] + res["refused"] + res["nondeterministic"]
    metrics = {
        "setup_s": (statistics.median(setups) * setup_k, "s"),
        "iter_s_p50": (calibration.central_s(iter_s, ref_s), "s"),
        "ops_per_s": (res["ok_ops"] / (sum(iter_s) * mean_k), "ops/s"),
        "fail_ratio": (fail_ratio(bad, res["attempted"]), "ratio"),
        "peak_rss_mib": (res["peak_rss_kib"] / 1024.0, "MiB"),
    }
    notes = {
        "setup_s": (f"median of {len(setups)} set-ups in separate processes, "
                    f"{statistics.median(setups):.6g} s wall, x {setup_k:.4g} reference s "
                    f"per wall s ('mixed' reference)"),
        "iter_s_p50": (f"{calibration.TRIM:.0%}-trimmed mean of {len(iter_s)} iterations; "
                       f"wall median {statistics.median(iter_s):.6g} s; '{res['reference']}' "
                       f"reference, {len(ref_s)} runs, median {statistics.median(ref_s):.4g} s"),
        "ops_per_s": (f"{res['ok_ops']} ops (one op = one {res['op']}) succeeded in "
                      f"{sum(iter_s):.3f} s wall of timed iterations, x {mean_k:.4g} reference s "
                      f"per wall s"),
        "fail_ratio": (f"{res['failed']} failed + {res['refused']} refused "
                       f"{res['refused_by'] or ''} + {res['nondeterministic']} nondeterministic "
                       f"of {res['attempted']} attempted, floored at {FAIL_RATIO_FLOOR:g}"),
        "peak_rss_mib": "peak resident memory of the measuring process",
    }
    lines = [f"{k:<16} {v:.6g} {u}   ({notes[k]})" for k, (v, u) in metrics.items()]
    return metrics, lines


def per_layer(res: dict, probes: list[dict]) -> tuple[dict, list[str]]:
    metrics = {k: tuple(v) for k, v in res["layers"].items()}
    setup_k = calibration.scale([p["ref_s"] for p in probes])
    metrics["setup.import_s"] = (statistics.median(p["import_s"] for p in probes) * setup_k, "s")
    metrics["setup.inputs_s"] = (statistics.median(p["inputs_s"] for p in probes) * setup_k, "s")
    untraced = calibration.central_s(res["iter_s"], res["ref_s"])
    traced = calibration.central_s(res["traced_iter_s"], res["traced_ref_s"])
    metrics["trace_overhead_s"] = (traced - untraced, "s")
    bases = dict(res["bases"])
    bases["trace_overhead_s"] = (f"traced {traced:.6g} s over {len(res['traced_iter_s'])} "
                                 f"iterations - untraced {untraced:.6g} s over "
                                 f"{len(res['iter_s'])}, as iter_s_p50")
    lines = [f"{k:<44} {v:.6g} {u}" + (f"   ({bases[k]})" if k in bases else "")
             for k, (v, u) in sorted(metrics.items())]
    lines.append(f"{res['spans']} spans recorded")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one heisenrep benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs and one set-up probe, for the self-test")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join("src", "heisenrep", "__init__.py")):
        print("benchmark: no src/heisenrep here; run from the root of a heisenrep checkout",
              file=sys.stderr)
        return 2

    started = time.perf_counter()
    env = child_env()
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    os.makedirs(os.path.join(OUT_DIR, "traces"), exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        common.append("--tiny")
    spans_path = os.path.join(OUT_DIR, "traces", f"{tag}.csv")

    def remaining() -> float:
        return TIME_LIMIT_S - (time.perf_counter() - started)

    try:
        # probes before and after the measured run, so that set-up samples
        # span the run rather than one stretch of the machine's speed
        n_probes = 1 if args.tiny else SETUP_PROBES
        probes = [run_child(common + ["--probe"], env, min(60.0, remaining()))["setup"]
                  for _ in range(n_probes - n_probes // 2)]
        res = run_child(common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                                  "--spans", spans_path], env, remaining())
        probes += [run_child(common + ["--probe"], env, min(60.0, remaining()))["setup"]
                   for _ in range(n_probes // 2)]
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    probes.append(res["setup"])

    info = environment(env, args.seed)
    if args.trace:
        metrics, lines = per_layer(res, probes)
    else:
        metrics, lines = end_to_end(res, probes)
    correct = res["unexpected_total"] == 0
    summary = {
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"] + res["refused"] + res["nondeterministic"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  (closed loop, one process, one client)")
    print("environment " + json.dumps(info, sort_keys=True))
    for line in lines:
        print(line)
    for reason in res["unexpected"]:
        print(f"INCORRECT: {reason}")
    if res["unexpected_total"] > len(res["unexpected"]):
        print(f"INCORRECT: ... {res['unexpected_total'] - len(res['unexpected'])} more")

    record = dict(summary, workload=args.workload, seconds=args.seconds, trace=args.trace,
                  environment=info, setup_samples=probes, worker=res)
    with open(os.path.join(OUT_DIR, "results", f"{tag}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
