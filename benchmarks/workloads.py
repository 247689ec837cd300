"""The three benchmark workloads, each driven through heisenrep's public API.

A workload is constructed from the seed, imports the heisenrep modules it
uses in `load` (that import is part of set-up time), builds its inputs in
`make_inputs`, and then runs iterations.  `run(i)` is the timed part: every
library call of one iteration happens there.  `check(i, out)` is untimed: it
compares the outputs with oracles computed by the benchmark itself and
returns a `Tally`.

Iterations repeat their inputs (harness-default and descriptor-closed-form
repeat one batch; spectral-large cycles through a small pool), so every work
count must repeat exactly and every output must hash to the same digest as
the first iteration that saw the same input.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Tally:
    """What one iteration did, as the worker counts it.

    attempted: ops attempted.  failed: ops whose result missed an oracle or a
    check.  refused: ops the library refused with a typed error.
    unexpected: reasons that make the run's output incorrect.  key/digest:
    iterations with the same key must produce the same digest.
    """

    attempted: int
    failed: int = 0
    refused: int = 0
    refused_by: dict = field(default_factory=dict)
    unexpected: list = field(default_factory=list)
    key: int | None = 0
    digest: str = ""


def _digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    scale = np.linalg.norm(b)
    return float(np.linalg.norm(a - b) / scale) if scale > 0 else float(np.linalg.norm(a))


# ---------------------------------------------------------------------------
# harness-default

class HarnessDefault:
    """A full `runner.run_all` at the default SuiteConfig; one op is one check.

    This is what the `heisenrep` CLI and the acceptance gate run.  Checks that
    fail count in fail_ratio; a failing check outside KNOWN_DEFECTS, or report
    bytes that differ between passes, make the run's output incorrect.
    """

    name = "harness-default"
    op = "check"
    reference = "mixed"
    # Standing failure of the seed code (multiplier and principal-value Hilbert
    # routes differ by about 0.107 against a 1e-3 threshold).  It still counts
    # in fail_ratio; listing it only stops it from marking the run incorrect.
    KNOWN_DEFECTS = frozenset({"paley-wiener/multiplier-vs-pv"})
    CHECKS_PER_PASS = 83

    def __init__(self, seed: int, tiny: bool = False):
        # the harness only passes at its default grid, so `tiny` changes nothing
        self.seed = seed

    def load(self) -> None:
        from heisenrep import runner
        from heisenrep.suites import SuiteConfig

        self.runner = runner
        self.SuiteConfig = SuiteConfig

    def make_inputs(self) -> None:
        # the harness derives its own inputs from the config seed
        self.config = self.SuiteConfig("group-axioms", seed=self.seed)

    def run(self, i: int):
        reports = self.runner.run_all(self.config)
        return reports, "".join(self.runner.report_json(r) for r in reports)

    def check(self, i: int, out) -> Tally:
        reports, text = out
        outcomes = [(f"{r['suite']}/{c['check']}", c["pass"])
                    for r in reports for c in r["checks"]]
        failing = [cid for cid, ok in outcomes if not ok]
        tally = Tally(attempted=len(outcomes), failed=len(failing),
                      digest=_digest(text, outcomes))
        if len(outcomes) != self.CHECKS_PER_PASS:
            tally.unexpected.append(
                f"pass ran {len(outcomes)} checks, expected {self.CHECKS_PER_PASS}")
        tally.unexpected.extend(f"check failed: {cid}" for cid in failing
                                if cid not in self.KNOWN_DEFECTS)
        return tally


# ---------------------------------------------------------------------------
# spectral-large

class SpectralLarge:
    """A fixed chain of spectral calls on a band-limited input at N = 2^16.

    One op is one chain.  Inputs are trigonometric polynomials on the dual
    grid's bins, synthesized with numpy's own FFT, so the exact derivative is
    known; group elements use bin-commensurate modulations, so U(xi)U(eta) =
    U(xi eta) holds to rounding.  Ops cycle through a pool of POOL inputs.
    """

    name = "spectral-large"
    op = "chain"
    reference = "arrays"
    POOL = 8
    TOL = 1e-12
    BAND = 10.0

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.size, self.half_width = (2 ** 10, 16.0) if tiny else (2 ** 16, 256.0)

    def load(self) -> None:
        import heisenrep
        from heisenrep import schwartz, testfn

        self.hr = heisenrep
        self.schwartz = schwartz
        self.testfn = testfn

    def _element(self, rng, grid_mode: bool = False):
        dx = 2.0 * self.half_width / self.size
        dy = np.pi / self.half_width
        xi1 = float(rng.uniform(-5.0, 5.0))
        if grid_mode:
            xi1 = round(xi1 / dx) * dx
        xi2 = dy * float(rng.integers(-int(5.0 / dy), int(5.0 / dy) + 1))
        return self.hr.GroupElement(xi1, xi2, float(rng.uniform(-5.0, 5.0)))

    def make_inputs(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.grid = self.hr.make_grid(self.half_width, self.size)
        L = self.half_width
        top = int(self.BAND * L / np.pi)
        self.pool = []
        for _ in range(self.POOL):
            k = np.arange(-top, top + 1)
            coef = (rng.standard_normal(k.size) + 1j * rng.standard_normal(k.size)) / math.sqrt(k.size)
            gauss = self.testfn.GaussianPoly(
                float(rng.uniform(-L / 4, L / 4)), float(rng.uniform(1.0, 8.0)),
                tuple(float(c) for c in rng.standard_normal(3)))
            self.pool.append({
                "k": k, "coef": coef,
                "f": self.hr.SampledFunction(self.grid, self._synth(k, coef)),
                "xi": self._element(rng), "eta": self._element(rng),
                "xi_grid": self._element(rng, grid_mode=True),
                "gauss": gauss,
            })

    def _synth(self, k: np.ndarray, coef: np.ndarray) -> np.ndarray:
        # sum_k c_k exp(i y_k x_j) with y_k = k*pi/L and x_j = -L + j*dx
        # equals sum_k c_k (-1)^k exp(2 pi i j k / N)
        spec = np.zeros(self.size, dtype=complex)
        spec[k % self.size] = coef * np.where(k % 2 == 0, 1.0, -1.0)
        return self.size * np.fft.ifft(spec)

    def run(self, i: int):
        hr, inp = self.hr, self.pool[i % self.POOL]
        f, xi, eta = inp["f"], inp["xi"], inp["eta"]
        spec = hr.fourier(f)
        u_eta = hr.act(eta, f)
        return {
            "spec": spec,
            "round_trip": hr.inverse_fourier(spec),
            "u_eta": u_eta,
            "u_xi_u_eta": hr.act(xi, u_eta),
            "u_xi_eta": hr.act(hr.multiply(xi, eta), f),
            "u_grid": hr.act(inp["xi_grid"], f, mode="grid"),
            "h_mult": hr.hilbert(f),
            "h_pv": hr.hilbert(f, method="principal_value"),
            "p_plus": hr.proj_hardy(f, "plus"),
            "p_minus": hr.proj_hardy(f, "minus"),
            "d": self.hr.heisenberg.generator_apply("D", f),
            "seminorm3": self.schwartz.seminorm_iter(f, 3),
            "defects": self.schwartz.class_defects(f),
            "gauss": self.testfn.sample(inp["gauss"], self.grid),
        }

    def check(self, i: int, out) -> Tally:
        inp = self.pool[i % self.POOL]
        f = inp["f"].values
        x = self.grid.points
        dx = self.grid.spacing
        dy = np.pi / self.half_width
        nf = math.sqrt(dx) * np.linalg.norm(f)
        v = {name: o.values for name, o in out.items()
             if isinstance(o, self.hr.SampledFunction)}

        xg = inp["xi_grid"]
        m = round(xg.xi1 / dx)
        shifted = np.zeros_like(f)
        if m >= 0:
            shifted[: self.size - m] = f[m:]
        else:
            shifted[-m:] = f[: self.size + m]
        grid_expected = np.exp(1j * xg.xi3) * np.exp(1j * xg.xi2 * x) * shifted
        d_expected = self._synth(inp["k"], 1j * (inp["k"] * dy) * inp["coef"])
        g = inp["gauss"]
        u = x - g.center
        gauss_expected = np.polynomial.polynomial.polyval(u, g.coefficients) * np.exp(-u * u / (2.0 * g.width ** 2))

        def norm_of(a, spacing=dx):
            return math.sqrt(spacing) * np.linalg.norm(a)

        errors = {
            "fourier unitarity": abs(norm_of(v["spec"], dy) - nf) / nf,
            "round trip": _rel(v["round_trip"], f),
            "act unitarity": abs(norm_of(v["u_eta"]) - nf) / nf,
            "U(xi)U(eta) = U(xi eta)": _rel(v["u_xi_u_eta"], v["u_xi_eta"]),
            "grid-mode act": _rel(v["u_grid"], grid_expected),
            "P+ + P- = I": _rel(v["p_plus"] + v["p_minus"], f),
            "H = -i(P+ - P-)": _rel(v["h_mult"], -1j * (v["p_plus"] - v["p_minus"])),
            "D exact": _rel(v["d"], d_expected),
            "hardy defect": abs(out["defects"]["hardy_plus"] - norm_of(v["p_minus"]) / nf),
            "sample GaussianPoly": _rel(v["gauss"], gauss_expected),
        }
        failed = [name for name, err in errors.items() if not err <= self.TOL]
        if not (np.isfinite(out["seminorm3"]) and out["seminorm3"] >= nf * (1.0 - self.TOL)):
            failed.append("seminorm_iter(f, 3) >= ||f||")
        if not np.all(np.isfinite(v["h_pv"])):
            failed.append("principal-value Hilbert finite")
        return Tally(
            attempted=1, failed=1 if failed else 0,
            unexpected=[f"oracle missed: {name}" for name in failed],
            key=i % self.POOL,
            digest=_digest(*(v[name] for name in sorted(v)), out["seminorm3"],
                           sorted(out["defects"].items())),
        )


# ---------------------------------------------------------------------------
# descriptor-closed-form

class DescriptorClosedForm:
    """Moment-annihilation draws, evaluated in closed form (no grid).

    One op is one draw: mother CompactBump(0.1, 0.9, p), p in [2, 12], K in
    [0, min(p - 1, 6)], epsilon in [1e-3, 1e-1].  Every (p, K) cell is run at
    STRATA values of epsilon, the midpoints of equal slices of log10(epsilon).
    Whether the library refuses a draw depends on the cell and on epsilon, so
    epsilon is not drawn at random: the batch, and with it the share of
    refused draws, is then the same for every seed.  The seed picks the far
    translation of each draw and the order of the batch.  Refused draws count
    in fail_ratio and stay in the batch.
    """

    name = "descriptor-closed-form"
    op = "draw"
    reference = "mixed"
    STRATA = 2
    A0 = 1.0001
    FAR = 1e13
    TOL = 1e-6

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.max_p, self.strata = (4, 1) if tiny else (12, self.STRATA)

    def load(self) -> None:
        # calls go through the module attributes so the tracer sees them
        from heisenrep import annihilator, errors, testfn

        self.annihilator = annihilator
        self.errors = errors
        self.testfn = testfn

    def make_inputs(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.draws = []
        for p in range(2, self.max_p + 1):
            for K in range(min(p - 1, 6) + 1):
                for s in range(self.strata):
                    log_eps = -3.0 + 2.0 * (s + 0.5) / self.strata
                    shift = self.FAR * float(rng.uniform(0.9, 1.1))
                    self.draws.append((p, K, 10.0 ** log_eps, shift))
        order = rng.permutation(len(self.draws))
        self.draws = [self.draws[j] for j in order]

    def _one(self, p: int, K: int, eps: float, shift: float):
        tf = self.testfn
        cfg = self.annihilator.AnnihilatorConfig(K=K, epsilon=eps, a0=self.A0,
                                                 mother=tf.CompactBump(0.1, 0.9, p))
        f, blocks, report = self.annihilator.annihilate(cfg)
        f_neg, _, neg_report = self.annihilator.annihilate_negative(cfg)
        tail = tf.Summed(tuple(b.f_k for b in blocks if b.gamma_k != 0.0))
        far = tf.Translated(f, shift)
        hi = tf.support(f)[-1][1]
        return {
            "report": report,
            "neg_defects": neg_report["moment_defects"],
            "neg_hi": tf.support(f_neg)[-1][1],
            "tail_l2": tf.exact_l2_norm(tail),
            "l2": tf.exact_l2_norm(f),
            "far_l2": tf.exact_l2_norm(far),
            "l1": tf.exact_l1_norm(f),
            "far_scale": shift + hi,
            "far_moments": [float(complex(tf.exact_moment(far, n)).real) for n in range(K + 1)],
        }

    def run(self, i: int):
        results = []
        for draw in self.draws:
            try:
                results.append(self._one(*draw))
            except (self.errors.ConfigurationError, self.errors.CapabilityError) as exc:
                # drop the traceback: it would tie this frame into a reference cycle
                results.append(exc.with_traceback(None))
        return results

    def check(self, i: int, out) -> Tally:
        tally = Tally(attempted=len(out))
        summary = []
        for (p, K, eps, _), res in zip(self.draws, out):
            if isinstance(res, Exception):
                kind = type(res).__name__
                tally.refused += 1
                tally.refused_by[kind] = tally.refused_by.get(kind, 0) + 1
                summary.append((kind, str(res)))
                continue
            rep = res["report"]
            missed = []
            if not max(rep["moment_defects"]) <= self.TOL:
                missed.append("final moment defects")
            if not rep["l2_distance"] < eps:
                missed.append("l2_distance < epsilon")
            if not abs(res["tail_l2"] - rep["l2_distance"]) <= 1e-12 * max(res["tail_l2"], 1e-300):
                missed.append("Pythagorean identity")
            if not (res["neg_defects"] == rep["moment_defects"] and res["neg_hi"] <= 0.0):
                missed.append("mirrored output")
            if not abs(res["far_l2"] - res["l2"]) <= self.TOL * res["l2"]:
                missed.append("L2 norm translated near 1e13")
            if not all(abs(m) <= self.TOL * res["l1"] * res["far_scale"] ** n
                       for n, m in enumerate(res["far_moments"])):
                missed.append("moments translated near 1e13")
            if missed:
                tally.failed += 1
                tally.unexpected.extend(f"draw p={p} K={K} eps={eps:.3e}: {m}" for m in missed)
            summary.append((rep, res["tail_l2"], res["far_l2"], res["far_moments"]))
        tally.digest = _digest(summary)
        return tally


WORKLOADS = {w.name: w for w in (HarnessDefault, SpectralLarge, DescriptorClosedForm)}
