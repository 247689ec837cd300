"""Spans around heisenrep's public functions, installed from outside the package.

`Tracer.install` wraps every public function defined in the traced modules
and puts the wrapper in place of the original at every binding that refers
to it: the globals of every heisenrep module (so `from .transforms import
fourier` call sites are covered), the package namespace, and module-level
dicts such as `suites.SUITES`.  `SampledFunction` constructions are counted,
not spanned.  Nothing under `src/` changes; `uninstall` restores every
binding.

A span is (name, start, end, parent span, iteration).  Spans stay in memory
until `write_spans`.  Self time is a span's duration minus the time covered
by its child spans.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import Counter

TRACED_MODULES = ("grid", "transforms", "heisenberg", "schwartz", "testfn",
                  "annihilator", "psi", "suites", "runner")

# (outer span, inner span): calls of inner made while outer is open
_NESTED = (("heisenberg.act_spectral", "transforms.fourier"),
           ("schwartz.seminorm_iter", "heisenberg.generator_apply"))
_NESTED_INNER = {inner for _, inner in _NESTED}


def _span_namer(name: str):
    """Span name chooser for functions whose layer depends on an argument."""
    if name == "heisenberg.act":
        return lambda args, kwargs: "heisenberg.act_" + (args[2] if len(args) > 2 else kwargs.get("mode", "spectral"))
    if name == "transforms.hilbert":
        def hilbert_name(args, kwargs):
            method = args[1] if len(args) > 1 else kwargs.get("method", "multiplier")
            return "transforms.hilbert_pv" if method == "principal_value" else "transforms.hilbert_" + method
        return hilbert_name
    return None


def _point_counter(name: str):
    """Grid points a call touches, for the layers that report `.points`."""
    if name in ("transforms.fourier", "transforms.hilbert"):
        return lambda args, kwargs: args[0].grid.size
    if name == "testfn.sample":
        return lambda args, kwargs: args[1].size
    return None


def rebind(replacements: dict) -> list[tuple]:
    """Put replacements[fn] in place of fn at every binding in heisenrep.

    Covers module globals (including names imported from another module),
    the package namespace and module-level dicts.  Returns the patches for
    `restore`.
    """
    patched = []
    package = [m for n, m in sys.modules.items() if n == "heisenrep" or n.startswith("heisenrep.")]
    for mod in package:
        namespace = vars(mod)
        for attr, obj in list(namespace.items()):
            if attr.startswith("__"):
                continue
            if inspect.isfunction(obj) and obj in replacements:
                patched.append((namespace, attr, obj))
                namespace[attr] = replacements[obj]
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if inspect.isfunction(value) and value in replacements:
                        patched.append((obj, key, value))
                        obj[key] = replacements[value]
    return patched


def restore(patched: list[tuple]) -> None:
    for target, key, original in reversed(patched):
        if isinstance(target, dict):
            target[key] = original
        else:
            setattr(target, key, original)


class IterationStats:
    """Work counts and times of one iteration."""

    def __init__(self):
        self.calls = Counter()
        self.points = Counter()
        self.self_s = Counter()
        self.total_s = Counter()
        self.raised = Counter()     # (span name, exception type) -> count
        self.nested = Counter()     # (outer, inner) -> count
        self.fourier_by_suite = Counter()
        self.fourier_us = []
        self.sampled = 0
        self.copied_bytes = 0

    def counts(self) -> dict:
        """Every exact count, for the determinism check."""
        out = {f"{k}.calls": v for k, v in self.calls.items()}
        out.update({f"{k}.points": v for k, v in self.points.items()})
        out.update({f"raised:{k[0]}:{k[1]}": v for k, v in self.raised.items()})
        out.update({f"nested:{k[0]}>{k[1]}": v for k, v in self.nested.items()})
        out.update({f"fourier_in:{k}": v for k, v in self.fourier_by_suite.items()})
        out["grid.SampledFunction.count"] = self.sampled
        out["grid.copied_bytes"] = self.copied_bytes
        return out


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []          # (name, start, end, parent, iteration)
        self.iterations: list[IterationStats] = []
        self._stats = IterationStats()
        self._iteration = -1
        self._stack: list[list] = []
        self._patched: list[tuple] = []
        self._epoch = time.perf_counter()

    # -- iteration bookkeeping ------------------------------------------------

    def begin_iteration(self, i: int) -> None:
        self._iteration = i
        self._stats = IterationStats()
        self.iterations.append(self._stats)

    def end_iteration(self) -> None:
        self._iteration = -1
        self._stats = IterationStats()  # calls between iterations are not kept

    # -- the wrapper ------------------------------------------------------------

    def _call(self, fn, name, npoints, args, kwargs):
        st = self._stats
        st.calls[name] += 1
        if npoints:
            st.points[name] += npoints
        if name in _NESTED_INNER:
            open_spans = {frame[1] for frame in self._stack}
            for outer, inner in _NESTED:
                if inner == name and outer in open_spans:
                    st.nested[(outer, inner)] += 1
            if name == "transforms.fourier":
                for span in open_spans:
                    if span.startswith("suites."):
                        st.fourier_by_suite[span] += 1
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        frame = [index, name, 0.0]        # [span index, name, child time]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            st.raised[(name, type(exc).__name__)] += 1
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            st.self_s[name] += duration - frame[2]
            st.total_s[name] += duration
            if name == "transforms.fourier":
                st.fourier_us.append(duration * 1e6)
            if self._stack:
                self._stack[-1][2] += duration
            self.spans[index] = (name, start - self._epoch, end - self._epoch,
                                 parent, self._iteration)

    def _wrap(self, fn, name):
        namer = _span_namer(name)
        points = _point_counter(name)
        call = self._call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = namer(args, kwargs) if namer else name
            return call(fn, span, points(args, kwargs) if points else 0, args, kwargs)

        return traced

    # -- installing -------------------------------------------------------------

    def install(self) -> None:
        # only the modules the workload imported; importing more would add work
        mods = {m: sys.modules[f"heisenrep.{m}"] for m in TRACED_MODULES
                if f"heisenrep.{m}" in sys.modules}
        span_names = {}
        if "suites" in mods:
            for sid, fn in mods["suites"].SUITES.items():
                span_names[fn] = f"suites.{sid}"
        wrappers = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(obj, span_names.get(obj, f"{short}.{attr}"))

        self._patched.extend(rebind(wrappers))

        sampled_cls = mods["grid"].SampledFunction
        original_post_init = sampled_cls.__post_init__
        tracer = self

        def counted_post_init(sf):
            tracer._stats.sampled += 1
            tracer._stats.copied_bytes += 16 * sf.grid.size
            original_post_init(sf)

        self._patched.append((sampled_cls, "__post_init__", original_post_init))
        sampled_cls.__post_init__ = counted_post_init

    def uninstall(self) -> None:
        restore(self._patched)
        self._patched.clear()

    def write_spans(self, path: str) -> None:
        lines = ["span,name,start_s,end_s,parent,iteration"]
        lines.extend(f"{i},{s[0]},{s[1]:.9f},{s[2]:.9f},{s[3]},{s[4]}"
                     for i, s in enumerate(self.spans) if s is not None)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics

# fixed here rather than read from heisenrep.suites: these are metric names
# in BENCHMARK.json, and the contract must not move with the library
SUITE_IDS = ("group-axioms", "transforms", "paley-wiener", "generators", "norms",
             "appendix-a", "psi-invariance", "tilde-space", "semigroup-evolution",
             "conjugation")


def layer_metrics(iterations: list[IterationStats]) -> tuple[dict, dict]:
    """Per-iteration layer metrics (name -> (value, unit)) and the bases of ratios.

    Counts come from the first iteration (the caller checks that all
    iterations agree); times are medians over iterations.
    """
    first = iterations[0]

    def count(name):
        return first.calls[name]

    def self_s(name):
        return statistics.median(it.self_s[name] for it in iterations)

    fourier_us = [us for it in iterations for us in it.fourier_us]
    fourier_calls = count("transforms.fourier")
    pv_calls = count("transforms.hilbert_pv")
    act_calls = count("heisenberg.act_spectral")
    fourier_in_act = first.nested[_NESTED[0]]
    seminorm_calls = count("schwartz.seminorm_iter")
    gen_in_seminorm = first.nested[_NESTED[1]]
    refused = Counter()
    for (name, exc), n in first.raised.items():
        if name == "annihilator.annihilate":
            refused[exc] += n

    m = {
        "grid.SampledFunction.count": (first.sampled, "count"),
        "grid.copied_bytes": (first.copied_bytes, "B"),
        "grid.norm.calls": (count("grid.norm"), "count"),
        "grid.norm.self_s": (self_s("grid.norm"), "s"),
        "transforms.fourier.calls": (fourier_calls, "count"),
        "transforms.fourier.points": (first.points["transforms.fourier"], "count"),
        "transforms.fourier.self_s": (self_s("transforms.fourier"), "s"),
        "transforms.fourier.p50_us": (statistics.median(fourier_us) if fourier_us else 0.0, "us"),
        "transforms.inverse_fourier.calls": (count("transforms.inverse_fourier"), "count"),
        "transforms.hilbert_multiplier.self_s": (self_s("transforms.hilbert_multiplier"), "s"),
        "transforms.hilbert_pv.self_s": (self_s("transforms.hilbert_pv"), "s"),
        "transforms.proj_hardy.calls": (count("transforms.proj_hardy"), "count"),
        "transforms.proj_hardy.self_s": (self_s("transforms.proj_hardy"), "s"),
        # computed from array sizes: input read plus output written, 16 B per
        # complex sample; a principal-value Hilbert call runs three length-2N FFTs
        "transforms.fft_bytes": (2 * 16 * first.points["transforms.fourier"]
                                 + 3 * 2 * 16 * 2 * first.points["transforms.hilbert_pv"], "B"),
        "heisenberg.act_spectral.calls": (act_calls, "count"),
        "heisenberg.act_spectral.self_s": (self_s("heisenberg.act_spectral"), "s"),
        "heisenberg.act_grid.self_s": (self_s("heisenberg.act_grid"), "s"),
        "heisenberg.generator_apply.calls": (count("heisenberg.generator_apply"), "count"),
        "heisenberg.generator_apply.self_s": (self_s("heisenberg.generator_apply"), "s"),
        "heisenberg.fourier_per_act": (fourier_in_act / act_calls if act_calls else 0.0, "ratio"),
        "schwartz.seminorm_iter.calls": (seminorm_calls, "count"),
        "schwartz.seminorm_iter.self_s": (self_s("schwartz.seminorm_iter"), "s"),
        "schwartz.generator_apply_per_seminorm": (
            gen_in_seminorm / seminorm_calls if seminorm_calls else 0.0, "ratio"),
        "schwartz.class_defects.self_s": (self_s("schwartz.class_defects"), "s"),
        "schwartz.seminorm_sup.self_s": (self_s("schwartz.seminorm_sup"), "s"),
        "testfn.sample.calls": (count("testfn.sample"), "count"),
        "testfn.sample.points": (first.points["testfn.sample"], "count"),
        "testfn.sample.self_s": (self_s("testfn.sample"), "s"),
        "testfn.exact_moment.calls": (count("testfn.exact_moment"), "count"),
        "testfn.exact_moment.self_s": (self_s("testfn.exact_moment"), "s"),
        "testfn.exact_l2_norm.self_s": (self_s("testfn.exact_l2_norm"), "s"),
        "testfn.exact_l1_norm.calls": (count("testfn.exact_l1_norm"), "count"),
        "testfn.exact_l1_norm.self_s": (self_s("testfn.exact_l1_norm"), "s"),
        "testfn.to_piecewise.calls": (count("testfn.to_piecewise"), "count"),
        "testfn.derivative.calls": (count("testfn.derivative"), "count"),
        "annihilator.annihilate.calls": (count("annihilator.annihilate"), "count"),
        "annihilator.annihilate.self_s": (self_s("annihilator.annihilate"), "s"),
        "annihilator.choose_interval.self_s": (self_s("annihilator.choose_interval"), "s"),
        "annihilator.build_block.self_s": (self_s("annihilator.build_block"), "s"),
        "annihilator.refused_configuration": (refused["ConfigurationError"], "count"),
        "annihilator.refused_capability": (refused["CapabilityError"], "count"),
        "psi.certify_nminus.calls": (count("psi.certify_nminus"), "count"),
        "psi.certify_nminus.self_s": (self_s("psi.certify_nminus"), "s"),
        "psi.synthesize.self_s": (self_s("psi.synthesize"), "s"),
    }
    for sid in SUITE_IDS:
        m[f"suites.{sid}.s"] = (statistics.median(it.total_s[f"suites.{sid}"] for it in iterations), "s")
    m["runner.report_json.self_s"] = (self_s("runner.report_json"), "s")

    bases = {
        "heisenberg.fourier_per_act": f"{fourier_in_act} fourier calls inside {act_calls} act_spectral calls",
        "schwartz.generator_apply_per_seminorm":
            f"{gen_in_seminorm} generator_apply calls inside {seminorm_calls} seminorm_iter calls",
        "transforms.fourier.p50_us": f"median of {len(fourier_us)} calls",
    }
    if first.fourier_by_suite:
        bases["transforms.fourier.calls"] = "by suite: " + ", ".join(
            f"{k.split('.', 1)[1]}={v}" for k, v in sorted(first.fourier_by_suite.items()))
    return m, bases
