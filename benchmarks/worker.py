"""One benchmark process: set up one workload, run it in a closed loop, and
print one JSON object on stdout.

`run.py` starts this script once per set-up probe (`--probe`: set up, report
the set-up times, exit) and once for the measured run.  Set-up time starts
before the benchmark's own modules and heisenrep are imported, so it covers
`import heisenrep` (and numpy, scipy as the workload pulls them in) plus
building the inputs from the seed; interpreter start-up is not included.
Every process also times a host-speed reference from calibration.py, right
after set-up and between timed iterations, so that run.py can give times in
reference seconds.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

SETUP_REF_REPEATS = 3


def _loop(wl, state, first, seconds, min_iterations, tracer=None):
    """Closed loop: iteration i + 1 starts when iteration i has finished.

    The workload's host-speed reference runs calibration.RUNS_PER_POINT times
    before the first iteration, after the last, and between iterations
    whenever calibration.EVERY_S has passed since it last ran.  Returns the
    wall times of the iterations, the times of the reference runs and the
    next iteration index.
    """
    import calibration
    from workloads import Tally

    def reference_point():
        return [calibration.reference_s(wl.reference) for _ in range(calibration.RUNS_PER_POINT)]

    times, refs = [], reference_point()
    last_ref = time.perf_counter()
    deadline = last_ref + seconds
    i = first
    while True:
        if tracer:
            tracer.begin_iteration(i)
        start = time.perf_counter()
        try:
            out = wl.run(i)
        except Exception as exc:  # a crashing op is counted and reported, not fatal
            out = exc
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.end_iteration()
        times.append(elapsed)
        if isinstance(out, Exception):
            tally = Tally(attempted=1, failed=1, key=None,
                          unexpected=[f"iteration {i} raised {out!r}"])
        else:
            tally = wl.check(i, out)
        del out  # not held through the reference runs and the next iteration
        state.add(tally, timed=True)
        i += 1
        now = time.perf_counter()
        done = len(times) >= min_iterations and now >= deadline
        if done or now - last_ref >= calibration.EVERY_S:
            refs.extend(reference_point())
            last_ref = time.perf_counter()
        if done:
            return times, refs, i


class _State:
    """Counts over the timed iterations, and the determinism record."""

    def __init__(self):
        self.attempted = self.failed = self.refused = self.nondeterministic = 0
        self.ok_timed = 0
        self.refused_by = {}
        self.unexpected = []
        self.digests = {}

    def add(self, tally, timed: bool) -> None:
        self.unexpected.extend(tally.unexpected)
        seen = self.digests.setdefault(tally.key, tally.digest)
        nondeterministic = seen != tally.digest
        if nondeterministic:
            self.unexpected.append(f"output for input {tally.key} differs from its first run")
        if not timed:
            return
        self.attempted += tally.attempted
        self.failed += tally.failed
        self.refused += tally.refused
        self.nondeterministic += int(nondeterministic)
        self.ok_timed += tally.attempted - tally.failed - tally.refused
        for kind, n in tally.refused_by.items():
            self.refused_by[kind] = self.refused_by.get(kind, 0) + n


def measure(wl, seconds: float, trace: bool, spans_path: str | None = None) -> dict:
    """Warm up, then run the timed loop; with `trace`, half the time untraced
    and half traced, so the two medians come from the same process."""
    state = _State()
    out = wl.run(0)  # warm-up: fills caches and records the reference digest
    state.add(wl.check(0, out), timed=False)
    del out

    untraced_s = seconds / 2 if trace else seconds
    iter_s, ref_s, nxt = _loop(wl, state, 1, untraced_s, 3)
    result = {"op": wl.op, "reference": wl.reference, "iter_s": iter_s, "ref_s": ref_s,
              "ok_ops": state.ok_timed}

    if trace:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
        try:
            traced_s, traced_ref_s, _ = _loop(wl, state, nxt, seconds / 2, 2, tracer)
        finally:
            tracer.uninstall()
        counts = [it.counts() for it in tracer.iterations]
        mismatched = sum(c != counts[0] for c in counts[1:])
        if mismatched:
            state.nondeterministic += mismatched
            state.unexpected.append(f"{mismatched} traced iterations changed their work counts")
        layers, bases = layer_metrics(tracer.iterations)
        result.update(traced_iter_s=traced_s, traced_ref_s=traced_ref_s,
                      layers=layers, bases=bases,
                      counts=counts[0], spans=len(tracer.spans))
        if spans_path:
            tracer.write_spans(spans_path)

    result.update(
        attempted=state.attempted, failed=state.failed,
        refused=state.refused, refused_by=state.refused_by,
        nondeterministic=state.nondeterministic,
        unexpected=state.unexpected[:20], unexpected_total=len(state.unexpected),
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    wl.load()
    t1 = time.perf_counter()
    wl.make_inputs()
    t2 = time.perf_counter()
    import calibration

    # the host speed right after set-up, for the set-up time in reference seconds
    result = {"setup": {"import_s": t1 - _T0, "inputs_s": t2 - t1,
                        "ref_s": calibration.reference_s("mixed", SETUP_REF_REPEATS)}}
    if not args.probe:
        result.update(measure(wl, args.seconds, bool(args.trace), args.spans))
        # ru_maxrss is in KiB on Linux
        result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
