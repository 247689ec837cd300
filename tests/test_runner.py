import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import heisenrep.suites
import heisenrep.transforms
from heisenrep.cli import build_parser, load_settings, main
from heisenrep.errors import ConfigurationError
from heisenrep.heisenberg import GroupElement
from heisenrep.runner import report_json, run_all, run_suite
from heisenrep.suites import SUITE_IDS, SuiteConfig
from heisenrep.testfn import Mirrored, Summed


def test_suite_config_validation():
    with pytest.raises(ConfigurationError):
        SuiteConfig(suite="nope")
    with pytest.raises(ConfigurationError):
        SuiteConfig(suite="norms", tolerances={"seminorm-0": -1.0})
    for bad in ({"epsilon": -1.0}, {"epsilon": 0.0}, {"epsilon": float("inf")},
                {"epsilon": float("nan")}, {"max_moment": -1},
                {"half_width": float("inf")}, {"size": 100}, {"seed": -1},
                {"half_width": "32"}, {"size": 4096.0}, {"epsilon": True},
                {"emit_csv": "yes"}, {"out": 5}, {"tolerances": [("x", 1.0)]},
                {"tolerances": {"distance": "0.1"}}):
        with pytest.raises(ConfigurationError):
            SuiteConfig(suite="norms", **bad)


def test_group_axioms_use_the_library_group_law(monkeypatch):
    def skewed(xi, eta):
        # adds x1^2 * y2 to the third component: not associative
        return GroupElement(xi.xi1 + eta.xi1, xi.xi2 + eta.xi2,
                            xi.xi3 + eta.xi3 + xi.xi1 * eta.xi2 + xi.xi1 ** 2 * eta.xi2)

    monkeypatch.setattr(heisenrep.suites, "multiply", skewed)
    rep = run_suite(SuiteConfig(suite="group-axioms"))
    assoc = [c for c in rep["checks"] if c["check"] == "associativity"]
    assert assoc and not assoc[0]["pass"]


def test_report_schema_and_determinism():
    cfg = SuiteConfig(suite="group-axioms", seed=3)
    rep1 = run_suite(cfg)
    rep2 = run_suite(SuiteConfig(suite="group-axioms", seed=3))
    assert report_json(rep1) == report_json(rep2)
    assert rep1["suite"] == "group-axioms"
    assert set(rep1["environment"]) == {"half_width", "size", "seed", "max_moment",
                                        "epsilon", "tolerances", "version"}
    for check in rep1["checks"]:
        assert set(check) == {"check", "description", "claim", "measured",
                              "threshold", "pass"}
        assert check["claim"]  # nonempty anchor
    assert rep1["overall_pass"] == all(c["pass"] for c in rep1["checks"])


def test_seed_changes_draws_not_conclusions():
    rep_a = run_suite(SuiteConfig(suite="group-axioms", seed=1))
    rep_b = run_suite(SuiteConfig(suite="group-axioms", seed=2))
    assert rep_a["overall_pass"] and rep_b["overall_pass"]
    assert report_json(rep_a) != report_json(rep_b)


def test_tolerance_override_applies():
    # every check's pass follows its recorded threshold, including the
    # halving-ratio and strict-contraction checks and a lower bound raised
    # above its witness (0.157)
    for suite, check, tol in (("transforms", "pv-lorentzian", 1e-9),
                              ("generators", "convergence-M-n0", 1e-9),
                              ("semigroup-evolution", "strict-contrast", 1e-9),
                              ("psi-invariance", "witness-modulation", 0.2)):
        rep = run_suite(SuiteConfig(suite=suite, tolerances={check: tol}))
        failing = [c for c in rep["checks"] if c["check"] == check]
        assert failing and failing[0]["threshold"] == tol
        assert failing[0]["measured"] > 1e-9 and not failing[0]["pass"]
        assert not rep["overall_pass"]


def test_cli_single_suite_pass(tmp_path, capsys):
    out = tmp_path / "reports"
    code = main(["--suite", "norms", "--out", str(out), "--emit-csv"])
    assert code == 0
    report = json.loads((out / "norms.json").read_text())
    assert report["overall_pass"]
    text = capsys.readouterr().out
    assert "[PASS] norms overall" in text


def test_cli_paley_wiener_suite_passes():
    assert main(["--suite", "paley-wiener"]) == 0


def test_cli_failing_check_exits_one():
    code = main(["--suite", "transforms", "--tolerance", "pv-lorentzian=1e-9"])
    assert code == 1


def test_cli_config_error_exits_two(capsys):
    assert main(["--tolerance", "nonsense"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_capability_error_exits_two(capsys):
    # the appendix-a mother bump supplies derivatives up to order 5 only
    assert main(["--suite", "appendix-a", "--max-moment", "6"]) == 2
    err = capsys.readouterr().err
    assert "CapabilityError" in err and len(err.strip().splitlines()) == 1


def test_cli_class_membership_error_exits_two(capsys):
    # the psi-invariance witnesses have vanishing moments only up to order 4
    assert main(["--suite", "psi-invariance", "--max-moment", "9"]) == 2
    err = capsys.readouterr().err
    assert "ClassMembershipError" in err and len(err.strip().splitlines()) == 1


def test_cli_infinite_half_width_exits_two():
    assert main(["--suite", "transforms", "--half-width", "inf"]) == 2


def test_cli_negative_epsilon_exits_two():
    assert main(["--suite", "norms", "--epsilon", "-1"]) == 2


def test_cli_config_file_and_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "suite": "transforms",
        "half_width": 32,
        "size": 2048,
        "seed": 7,
        "tolerances": {"pv-lorentzian": 0.02},
    }))
    assert main(["--config", str(cfg)]) == 0
    # flag overrides the file: shrink the tolerance so the check fails
    assert main(["--config", str(cfg), "--tolerance", "pv-lorentzian=1e-9"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--config", str(bad)]) == 2


@pytest.mark.parametrize("entries", [
    {"epsilon": "x"}, {"half_width": "32"}, {"max_moment": "3"}, {"max_moment": 2.5},
    {"out": 5}, {"size": 2048.0}, {"tolerances": {"distance": "x"}}, {"seed": "a"},
    # keys that name no SuiteConfig field, and tolerances that are no object
    {"grid": {"n": 2048}}, {"seed": 1, "seeds": 2}, {"tolerances": [["distance", 0.1]]},
])
def test_cli_mistyped_config_value_exits_two(tmp_path, capsys, entries):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(entries))
    assert main(["--config", str(cfg), "--suite", "appendix-a"]) == 2
    err = capsys.readouterr().err
    assert "ConfigurationError" in err and len(err.strip().splitlines()) == 1


def test_config_file_and_flags_share_the_suite_config_schema(tmp_path):
    names = {f.name for f in dataclasses.fields(SuiteConfig)}
    # every field is set by a file key of the same name
    values = {"suite": "norms", "half_width": 16.0, "size": 1024, "seed": 3,
              "max_moment": 2, "epsilon": 0.05, "tolerances": {"distance": 0.5},
              "out": str(tmp_path / "reports"), "emit_csv": True}
    assert set(values) == names
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(values))
    config = SuiteConfig.from_settings(load_settings(build_parser().parse_args(
        ["--config", str(cfg)])))
    assert dataclasses.asdict(config) == values
    # every setting flag's dest is the field it sets
    dests = set(vars(build_parser().parse_args([]))) - {"config", "tolerance"}
    assert dests == names - {"tolerances"}


def test_suite_config_stores_checked_types():
    # an environment does not depend on whether a value came as 32 or 32.0
    cfg = SuiteConfig("norms", half_width=32, size=np.int64(4096), epsilon=1,
                      tolerances={"distance": 1})
    assert [type(v) for v in (cfg.half_width, cfg.size, cfg.epsilon)] == [float, int, float]
    assert type(cfg.tolerances["distance"]) is float
    with pytest.raises(ConfigurationError, match="unknown config keys"):
        SuiteConfig.from_settings({"suite": "norms", "L": 32})


def test_report_environment_is_a_config_file(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    code = main(["--suite", "norms", "--half-width", "16", "--grid-size", "2048",
                 "--seed", "5", "--epsilon", "0.05", "--tolerance", "seminorm-0=1e-9",
                 "--out", str(first)])
    environment = json.loads((first / "norms.json").read_text())["environment"]
    del environment["version"]
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(environment))
    assert main(["--config", str(cfg), "--suite", "norms", "--out", str(second)]) == code
    assert (second / "norms.json").read_bytes() == (first / "norms.json").read_bytes()


@pytest.mark.parametrize("argv", [
    ["--suite", "semigroup-evolution", "--half-width", "8"],  # contraction draws
    ["--half-width", "0.5"],  # paley-wiener's bump on (1, 2)
    ["--suite", "conjugation", "--half-width", "0.5"],  # a Hardy-plus spectrum
    ["--suite", "norms", "--grid-size", "4"],  # the pair-norm witnesses
])
def test_cli_window_missing_a_fixed_function_exits_two(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "samples to zero" in err and "half_width=" in err and "size=" in err
    assert len(err.strip().splitlines()) == 1


def test_default_report_bytes_pinned():
    # every report of the default run, concatenated in suite order; a pure
    # refactor keeps these bytes, a deliberate change of values records the
    # new digest (measured with numpy 2.4.6, whose FFT fixes the last digits)
    text = "".join(report_json(r) for r in run_all(SuiteConfig(suite=SUITE_IDS[0])))
    data = text.encode()
    assert len(data) == 23381
    assert hashlib.sha256(data).hexdigest() == (
        "ecdc30eba78dbf7ad8ba11bd74acbb516bbf929b725df904e8aa329522262ece")


def test_mirror_defects_detect_a_wrong_mirror(monkeypatch):
    # a mirror that lost its last block no longer annihilates the top moment
    def dropped_block(config):
        f, blocks, report = heisenrep.suites.annihilate(config)
        return Mirrored(Summed(f.terms[:-1])), blocks, report

    monkeypatch.setattr(heisenrep.suites, "annihilate_negative", dropped_block)
    checks = {c["check"]: c for c in run_suite(SuiteConfig(suite="appendix-a"))["checks"]}
    assert not checks["mirror-defects"]["pass"]
    assert checks["final-moments"]["pass"]


def test_generators_fourier_count(monkeypatch):
    # pins the suite's transform count: one seminorm tower per function, per
    # draw and per difference quotient, each applying every operator word once
    calls = []
    fourier = heisenrep.transforms.fourier

    def counting(f):
        calls.append(f.grid.size)
        return fourier(f)

    monkeypatch.setattr(heisenrep.transforms, "fourier", counting)
    monkeypatch.setattr(heisenrep.suites, "fourier", counting)
    run_suite(SuiteConfig(suite="generators"))
    assert len(calls) == 1832


def test_grid_caches_keep_reports_independent_of_run_order():
    small = SuiteConfig(suite="transforms", size=1024)
    before = report_json(run_suite(small))
    run_suite(SuiteConfig(suite="transforms", size=4096))
    assert report_json(run_suite(small)) == before


def test_cli_crash_exits_three(monkeypatch, capsys):
    def crash(cfg, rec):
        raise RuntimeError("boom")

    monkeypatch.setitem(heisenrep.suites.SUITES, "norms", crash)
    assert main(["--suite", "norms"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "internal error (RuntimeError): boom"
    assert err[1] == "Traceback (most recent call last):"
    assert err[-1] == "RuntimeError: boom"


def test_cli_emit_csv_writes_curves(tmp_path):
    out = tmp_path / "reports"
    assert main(["--suite", "generators", "--out", str(out), "--emit-csv"]) == 0
    csvs = sorted(p.name for p in out.glob("*.csv"))
    assert "generators_convergence_M_n0.csv" in csvs
    first = (out / "generators_convergence_M_n0.csv").read_text().splitlines()
    assert first[0] == "parameter,value"
    assert len(first) > 2


def test_suite_registry_complete():
    assert len(SUITE_IDS) == 10


def _run_fresh(code: str) -> subprocess.CompletedProcess:
    # a fresh interpreter: this process has scipy loaded by other test modules
    src = os.path.dirname(os.path.dirname(heisenrep.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)


def test_runtime_imports_no_scipy():
    proc = _run_fresh("import sys, heisenrep.cli, heisenrep.runner\n"
                      "print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_runs_with_scipy_blocked():
    proc = _run_fresh("import sys\nsys.modules['scipy'] = None\n"
                      "import heisenrep.cli\n"
                      "sys.exit(heisenrep.cli.main(['--suite', 'norms']))")
    assert proc.returncode == 0, proc.stderr
    assert "[PASS] norms overall" in proc.stdout
