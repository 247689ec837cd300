import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import heisenrep.annihilator
import heisenrep.psi
import heisenrep.suites
import heisenrep.testfn
import heisenrep.transforms
from heisenrep.cli import build_parser, load_settings, main
from heisenrep.errors import ClassMembershipError, ConfigurationError
from heisenrep.grid import SampledFunction, dual_grid
from heisenrep.heisenberg import GroupElement
from heisenrep.runner import report_json, run_all, run_suite
from heisenrep.suites import CHECKS, SUITE_IDS, Recorder, SuiteConfig
from heisenrep.testfn import Mirrored, PiecewisePoly


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


@pytest.mark.parametrize("suite", ["psi-invariance", "tilde-space"])
def test_cli_unbounded_max_moment_exits_two(suite):
    # certification stops at the first order that fails (order 5 for the
    # witnesses), however far max_moment reaches; a child process, so a
    # regression times out instead of hanging the run
    proc = _run_fresh("import sys, time\nimport heisenrep.cli\n"
                      "start = time.perf_counter()\n"
                      f"code = heisenrep.cli.main(['--suite', '{suite}', "
                      f"'--max-moment', '{10 ** 12}'])\n"
                      "print(time.perf_counter() - start)\nsys.exit(code)", timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "ClassMembershipError" in proc.stderr and "at order 5 " in proc.stderr
    assert float(proc.stdout.split()[-1]) < 5.0


def test_cli_infinite_half_width_exits_two():
    assert main(["--suite", "transforms", "--half-width", "inf"]) == 2


def test_cli_huge_grid_size_exits_two():
    assert main(["--suite", "transforms", "--grid-size", str(2 ** 1400)]) == 2


def test_cli_grid_past_the_byte_cap_exits_two(capsys):
    # 2^40 points would take 16 TiB; the grid is refused before any is allocated
    assert main(["--suite", "norms", "--grid-size", str(2 ** 40)]) == 2
    err = capsys.readouterr().err
    assert "MAX_GRID_BYTES" in err and len(err.strip().splitlines()) == 1


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
    # integers beyond the float range
    {"half_width": 10 ** 400}, {"tolerances": {"seminorm-0": 10 ** 400}}, {"size": 2 ** 1400},
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


def test_suite_config_is_frozen():
    # the config builds its grid when it is made, so a field changed later
    # would be reported but not run
    cfg = SuiteConfig("norms")
    for name, value in (("half_width", 8.0), ("seed", -3), ("suite", "transforms")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, value)
    assert (cfg.half_width, cfg.seed, cfg.suite) == (32.0, 0, "norms")
    assert cfg.grid().half_width == 32.0


def test_run_suite_needs_a_suite(tmp_path):
    out = tmp_path / "reports"
    cfg = SuiteConfig(out=str(out))
    assert cfg.suite is None
    with pytest.raises(ConfigurationError, match="run_suite needs"):
        run_suite(cfg)
    assert not out.exists()


def test_cli_without_a_suite_runs_every_suite(monkeypatch):
    seen = []
    for suite_id in SUITE_IDS:
        monkeypatch.setitem(heisenrep.suites.SUITES, suite_id,
                            lambda cfg, rec, suite_id=suite_id: seen.append((suite_id, cfg.suite)))
    assert main(["--seed", "3"]) == 0
    assert seen == [(suite_id, None) for suite_id in SUITE_IDS]


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


_DUALITY_ZERO = "suite norms, check moment-derivative-duality: float division by zero"


@pytest.mark.parametrize("argv, refusal", [
    # contraction draws; paley-wiener's bump on (1, 2); a Hardy-plus
    # spectrum; the pair-norm witnesses
    (["--suite", "semigroup-evolution", "--half-width", "8"], "samples to zero"),
    (["--half-width", "0.5"], "samples to zero"),
    (["--suite", "conjugation", "--half-width", "0.5"], "samples to zero"),
    (["--suite", "norms", "--grid-size", "4"], "samples to zero"),
    # x^n times the moment function samples to zero, so its relative error
    # is 0/0, which the floating-point boundary refuses
    (["--suite", "norms", "--half-width", "1e6"], _DUALITY_ZERO),
    (["--suite", "norms", "--half-width", "1e-300"], _DUALITY_ZERO),
], ids=[f"argv{i}" for i in range(6)])
def test_cli_window_missing_a_fixed_function_exits_two(capsys, argv, refusal):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert refusal in err and "half_width=" in err and "size=" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv, message", [
    # the difference-quotient errors are all 0, so their ratios are 0/0
    pytest.param(["--suite", "generators", "--half-width", "1e-300", "--grid-size", "64"],
                 "suite generators, check convergence-M-n0: invalid value encountered in "
                 "divide on the grid with half_width=1e-300, size=64",
                 id="generators-zero-errors"),
    (["--suite", "norms", "--tolerance", "seminorm-0=inf"], "finite"),
])
def test_cli_non_finite_value_exits_two(tmp_path, capsys, argv, message):
    # a report holds finite numbers only, so it is strict JSON; no report
    # is written for a run refused this way
    out = tmp_path / "reports"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "ConfigurationError" in err and message in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("half_width", ["1e-300", "1e-100", "1e3", "1e300"])
@pytest.mark.parametrize("suite", SUITE_IDS)
def test_cli_window_sweep_runs_or_refuses_in_one_line(capsys, suite, half_width):
    # windows far too narrow or too wide for the suites: each run passes,
    # fails a check or is refused in one line, with no warning and no
    # crash, and the floating-point trap does not outlive the run
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["--suite", suite, "--half-width", half_width])
    assert np.geterr() == before
    err = capsys.readouterr().err
    assert code in (0, 1, 2), err
    assert len(err.splitlines()) == (1 if code == 2 else 0), err
    # every refusal raised inside a suite names the suite, the check and the window
    if code == 2:
        assert f"suite {suite}, " in err and "half_width=" in err and "size=" in err, err


def test_floating_point_boundary_names_the_check_being_measured(tmp_path, capsys, monkeypatch):
    first, second = (c.id for c in CHECKS["norms"][:2])

    def divides(cfg, rec):
        rec.check(first, 0.0)
        np.float64(1.0) / 0.0

    monkeypatch.setitem(heisenrep.suites.SUITES, "norms", divides)
    out = tmp_path / "reports"
    assert main(["--suite", "norms", "--out", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("configuration error (ConfigurationError): suite norms, "
                           f"check {second}: divide by zero encountered in ")
    assert line.endswith(" on the grid with half_width=32.0, size=4096")
    assert not out.exists()
    with pytest.raises(ConfigurationError, match=f"suite norms, check {second}: divide by zero"):
        run_suite(SuiteConfig(suite="norms"))

    def divides_after_its_checks(cfg, rec):
        for c in CHECKS["norms"]:
            rec.check(c.id, 0.0)
        np.float64(1.0) / 0.0

    monkeypatch.setitem(heisenrep.suites.SUITES, "norms", divides_after_its_checks)
    with pytest.raises(ConfigurationError, match="suite norms, after its last check: divide"):
        run_suite(SuiteConfig(suite="norms"))


def test_modulations_beyond_int64_refused():
    with pytest.raises(ConfigurationError, match=r"^suite group-axioms, check homomorphism: "
                       r"modulation bins in \[-5, 5\] outnumber int64 on the grid "
                       r"with half_width=1e\+300, size=4096$"):
        run_suite(SuiteConfig("group-axioms", half_width=1e300))


@pytest.mark.parametrize("suite", ["psi-invariance", "tilde-space"])
def test_refusal_inside_a_suite_keeps_its_type_and_names_the_window(suite):
    # the psi witnesses are not certified on this coarse grid; the refusal
    # used to name neither the suite nor the window
    first = CHECKS[suite][0].id
    with pytest.raises(ClassMembershipError, match=(
            rf"^suite {suite}, check {first}: moment defect 5.460e-05 at order 1 exceeds "
            r"threshold 1.0e-06 on the grid with half_width=32.0, size=1024$")):
        run_suite(SuiteConfig(suite, size=1024))


def test_non_finite_measurement_names_the_suite_and_check(monkeypatch):
    def overflows(cfg, rec):
        rec.check(CHECKS["norms"][0].id, 0.0)
        rec.check(CHECKS["norms"][1].id, 1e308 / 0.1)

    monkeypatch.setitem(heisenrep.suites.SUITES, "norms", overflows)
    with pytest.raises(ConfigurationError, match=(
            rf"^suite norms, check {CHECKS['norms'][1].id}: measured inf on the grid "
            r"with half_width=32.0, size=4096$")):
        run_suite(SuiteConfig(suite="norms"))


def test_non_finite_measurement_refused():
    # a draw of NaN is refused too, though max() of the draws would drop it
    rec = Recorder(SuiteConfig(suite="norms"), "norms")
    # a Python float overflows to inf without an exception, which the
    # runner's numpy trap does not see
    for value in (math.nan, math.inf, -math.inf, [0.0, math.nan, 1e-12], 1e308 / 0.1):
        with pytest.raises(ConfigurationError, match="^measured (nan|-?inf)$"):
            rec.check("seminorm-0", value)
    assert rec.checks == []
    with pytest.raises(ValueError):
        report_json({"measured": math.nan})


def test_default_reports_are_strict_json():
    def refuse(token):
        raise ValueError(f"non-JSON token {token}")

    for rep in run_all(SuiteConfig(suite=SUITE_IDS[0])):
        assert json.loads(report_json(rep), parse_constant=refuse) == rep


@pytest.mark.parametrize("argv, unknown", [
    (["--suite", "norms", "--tolerance", "seminorm-O=1e-30"], "['seminorm-O']"),
    # a check id of a suite that did not run sets nothing either
    (["--suite", "norms", "--tolerance", "distance=0.1",
      "--tolerance", "seminorm-0=1e-3"], "['distance']"),
])
def test_cli_unknown_tolerance_key_exits_two(capsys, argv, unknown):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "ConfigurationError" in err and unknown in err


def test_run_suite_refuses_unknown_tolerance_key():
    with pytest.raises(ConfigurationError, match=r"\['seminorm-O'\]"):
        run_suite(SuiteConfig("norms", tolerances={"seminorm-O": 1e-30}))


def test_unknown_tolerance_key_refused_before_any_suite_runs(monkeypatch):
    def ran(cfg, rec):
        raise AssertionError("a suite ran")

    for suite_id in SUITE_IDS:
        monkeypatch.setitem(heisenrep.suites.SUITES, suite_id, ran)
    with pytest.raises(ConfigurationError, match=r"\['seminorm-O'\]"):
        run_suite(SuiteConfig("norms", tolerances={"seminorm-O": 1e-30}))
    with pytest.raises(ConfigurationError, match=r"\['distance'\]"):
        run_suite(SuiteConfig("norms", tolerances={"distance": 0.1}))


@pytest.mark.parametrize("argv", [
    ["--suite", "norms", "--tolerance", "seminorm-O=1e-30"],
    # group-axioms and transforms pass on this window, paley-wiener is refused
    ["--half-width", "1e6"],
])
def test_refused_run_writes_no_file(tmp_path, argv):
    out = tmp_path / "reports"
    assert main([*argv, "--out", str(out), "--emit-csv"]) == 2
    assert not out.exists()


def test_cli_unknown_tolerance_key_in_config_file_exits_two(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"tolerances": {"seminorm-O": 1e-30, "pv-lorentzain": 1.0}}))
    assert main(["--config", str(cfg), "--suite", "norms",
                 "--tolerance", "sup-00=1e-3"]) == 2
    assert "['pv-lorentzain', 'seminorm-O']" in capsys.readouterr().err


@pytest.mark.parametrize("half_width", ["50", "100"])  # pi/(pi/dx) is one ulp off dx at 100
@pytest.mark.parametrize("suite", ["transforms", "generators", "conjugation", "norms"])
def test_cli_window_without_exact_spacing_round_trip(suite, half_width):
    assert main(["--suite", suite, "--half-width", half_width]) == 0


def test_default_report_bytes_pinned():
    # every report of the default run, concatenated in suite order; a pure
    # refactor keeps these bytes, a deliberate change of values records the
    # new digest (measured with numpy 2.4.6, whose FFT fixes the last digits)
    text = "".join(report_json(r) for r in run_all(SuiteConfig(suite=SUITE_IDS[0])))
    data = text.encode()
    assert len(data) == 23387
    assert hashlib.sha256(data).hexdigest() == (
        "4ae635a950334de012252f8c6d2634357b7349a53fdd9b0cae789ff0704fe5aa")


@pytest.mark.parametrize("size,length,digest", [
    (8192, 23349, "465e00335057d4e021deb5168fff43a4b8b695dbe806714ae532e966ba1de0e0"),
    (16384, 23401, "5f2f6b8834cb4eb643ebd6ac6d1d0b03d600624c5197b8264215292fd9d88d3a"),
])
def test_report_bytes_pinned_at_smaller_chunks(size, length, digest):
    # the draw loops hand over 2 rows at N = 8192 and 1 row at N = 16384; the
    # default run pins 4, so these pin the reports at the other chunk sizes
    text = "".join(report_json(r) for r in run_all(SuiteConfig(suite=SUITE_IDS[0], size=size)))
    data = text.encode()
    assert len(data) == length
    assert hashlib.sha256(data).hexdigest() == digest


# sha256 of each curve file of a default `heisenrep --out DIR --emit-csv`,
# pinned as the reports are: a pure refactor keeps these bytes too
CURVE_DIGESTS = {
    "generators_convergence_C_n0.csv":
        "502f1eaf2eb04a3dcb25311623cd559a62c3939e15806807191bb98514d67e4a",
    "generators_convergence_C_n1.csv":
        "304c2c07c857d2f4ff7a6e37a911314d31795f38876428f6c38bdab970e9a7da",
    "generators_convergence_C_n2.csv":
        "8040bf4c053eefb1332525509c88c03994ec266b9d472a10a34a83f02bff7402",
    "generators_convergence_D_n0.csv":
        "72b57e38de01c8973ef44270583f7d35f0da22eb4e059ad7a24dcf1fe5dd9fe8",
    "generators_convergence_D_n1.csv":
        "0862b87ad66cefcdee0d75b2db406f2f8743fbba6160d450ef386e21cb42938b",
    "generators_convergence_D_n2.csv":
        "10b781682c5962ebdea38cb20068578ce8afe315f1d574b3c78ae95d7b588ae3",
    "generators_convergence_M_n0.csv":
        "08c2be41253884c5565bef37cbbeb05db267433e9e64263937ced7f16fb13c87",
    "generators_convergence_M_n1.csv":
        "c6c9a4f5f111eff63d3bd8a5f82817a841882cfae9adf01f15ce6b8577fdb621",
    "generators_convergence_M_n2.csv":
        "c79459866737e7377fe60960d6fc51e7021e41ada7e64c65caa6323dbed6e5d1",
    "psi-invariance_witness_vs_xi1.csv":
        "1bd39df2dd7a0242523b9abca41152223716aa6d14c7c39b518f81617cb43650",
    "semigroup-evolution_hardy_step_vs_xi2.csv":
        "e539537be9db2d1f680b8269ad2369a9ba5afebf7af8ea3f2a4fe1bf5536edd2",
}


def test_default_curve_files_pinned(tmp_path):
    assert main(["--out", str(tmp_path), "--emit-csv"]) == 0
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in tmp_path.glob("*.csv")} == CURVE_DIGESTS


def test_mirror_defects_detect_a_wrong_mirror(monkeypatch):
    # a mirror that lost its last block's piece no longer annihilates the
    # top moment
    def dropped_block(f, blocks):
        return Mirrored(PiecewisePoly(f.pieces[:-1], f.smooth)), blocks

    monkeypatch.setattr(heisenrep.suites, "mirror", dropped_block)
    checks = {c["check"]: c for c in run_suite(SuiteConfig(suite="appendix-a"))["checks"]}
    assert not checks["mirror-defects"]["pass"]
    assert checks["final-moments"]["pass"]


@pytest.mark.parametrize("field,check", [("moment_error", "block-moment-identity"),
                                         ("lower_defect", "blocks-lower-moments")])
def test_block_checks_read_the_records(monkeypatch, field, check):
    # the suite reports what build_block measured; it does not re-derive it
    def wrong_record(config):
        f, blocks, report = heisenrep.annihilator.annihilate(config)
        return f, [*blocks[:-1], dataclasses.replace(blocks[-1], **{field: 1.0})], report

    monkeypatch.setattr(heisenrep.suites, "annihilate", wrong_record)
    checks = {c["check"]: c for c in run_suite(SuiteConfig(suite="appendix-a"))["checks"]}
    assert not checks[check]["pass"]
    assert checks["final-moments"]["pass"]


def test_appendix_a_annihilates_once(monkeypatch):
    # the mirrored side reflects the construction the suite already holds
    calls = []
    annihilate = heisenrep.annihilator.annihilate

    def counting(config):
        calls.append(config)
        return annihilate(config)

    monkeypatch.setattr(heisenrep.annihilator, "annihilate", counting)
    monkeypatch.setattr(heisenrep.suites, "annihilate", counting)
    run_suite(SuiteConfig(suite="appendix-a"))
    assert len(calls) == 1


def test_appendix_a_tabulates_the_translated_moments_once(monkeypatch):
    # translation-invariance reads orders 0..K from one exact_moments call
    calls = []
    moments = heisenrep.testfn.exact_moments

    def counting(tf, n_max):
        calls.append(n_max)
        return moments(tf, n_max)

    monkeypatch.setattr(heisenrep.testfn, "exact_moments", counting)
    monkeypatch.setattr(heisenrep.testfn, "exact_moment", None)
    run_suite(SuiteConfig(suite="appendix-a"))
    assert calls == [SuiteConfig(suite="appendix-a").max_moment]


def test_psi_invariance_certify_count(monkeypatch):
    # each descriptor the suite synthesizes is certified once: its pair (2),
    # the eight moved pairs of the survival, compatibility and composition
    # checks (16) and the equal pair's one descriptor (1)
    calls = []
    certify = heisenrep.psi.certify_nminus

    def counting(desc, grid, max_moment=4):
        calls.append(max_moment)
        return certify(desc, grid, max_moment)

    monkeypatch.setattr(heisenrep.psi, "certify_nminus", counting)
    run_suite(SuiteConfig(suite="psi-invariance"))
    assert len(calls) == 19


def _count_ffts(monkeypatch, record):
    """Hand record the number of rows of each call to numpy's fft or ifft, from a
    cold memo: no spectrum kept from before is reused."""
    heisenrep.transforms._last = None
    for name in ("fft", "ifft"):
        def counting(a, *args, transform=getattr(np.fft, name), **kwargs):
            record(math.prod(np.shape(a)[:-1]))
            return transform(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counting)


def test_generators_fourier_count(monkeypatch):
    # pins the suite's transform work: one seminorm tower per function and per
    # chunk of stacked draws or difference quotients, each transforming a node
    # only where the next generator changes domain; one call transforms a
    # chunk's rows, and a chunk's shared input once.  Counted at numpy's
    # forward and backward FFTs, which every transform reaches (inverse_fourier
    # and spectral_multiply do not call fourier).  A function transformed twice
    # in a row is transformed once: 2 of 160 forward half-transforms reuse the
    # spectrum kept by transforms._forward (282 calls and 954 rows before it)
    calls = []
    _count_ffts(monkeypatch, calls.append)
    run_suite(SuiteConfig(suite="generators"))
    assert len(calls) == 280
    assert sum(calls) == 952


def test_default_pass_fft_work(monkeypatch):
    # pins the FFT work of a warm default pass per suite, as (calls, rows)
    # counted at numpy's forward and backward FFTs: the draw loops hand over
    # chunks of 4 draws at N = 4096, so a call transforms a stack of rows, and
    # a chunk's shared input is transformed once; a Hardy pair is projected,
    # and its terms measured, as one stack.  A line or principal-value
    # Hilbert call transforms its kernel only the first time at a size, so an
    # unpinned pass goes first and the pins hold whatever ran before.  An input
    # transformed again right after its last transform reuses its spectrum
    # (transforms._forward): 29 of 388 forward half-transforms, 24 of them in
    # group-axioms, whose chunks act on one f (727 calls and 2,155 rows before)
    run_all(SuiteConfig(suite=SUITE_IDS[0]))
    rows = {suite_id: [] for suite_id in SUITE_IDS}
    current = []
    for suite_id, suite in list(heisenrep.suites.SUITES.items()):
        def entered(cfg, rec, suite_id=suite_id, suite=suite):
            current.append(suite_id)
            suite(cfg, rec)
        monkeypatch.setitem(heisenrep.suites.SUITES, suite_id, entered)
    _count_ffts(monkeypatch, lambda n: rows[current[-1]].append(n))
    run_all(SuiteConfig(suite=SUITE_IDS[0]))
    assert {suite_id: (len(r), sum(r)) for suite_id, r in rows.items()} == {
        "group-axioms": (127, 427),
        "transforms": (55, 166),
        "paley-wiener": (38, 66),
        "generators": (280, 952),
        "norms": (27, 48),
        "appendix-a": (0, 0),
        "psi-invariance": (34, 104),
        "tilde-space": (15, 36),
        "semigroup-evolution": (20, 54),
        "conjugation": (102, 273),
    }


def test_default_pass_public_constructions(monkeypatch):
    # pins the SampledFunction constructions of a warm default pass per suite
    # that run the public constructor, each a copy and a finiteness scan of
    # caller data; the library's own buffers go through grid._adopt, which
    # does not run __post_init__ (1,444 constructions per pass ran it before)
    run_all(SuiteConfig(suite=SUITE_IDS[0]))
    counts = dict.fromkeys(SUITE_IDS, 0)
    current = []
    for suite_id, suite in list(heisenrep.suites.SUITES.items()):
        def entered(cfg, rec, suite_id=suite_id, suite=suite):
            current.append(suite_id)
            suite(cfg, rec)
        monkeypatch.setitem(heisenrep.suites.SUITES, suite_id, entered)
    post_init = SampledFunction.__post_init__

    def counted(f):
        counts[current[-1]] += 1
        post_init(f)

    monkeypatch.setattr(SampledFunction, "__post_init__", counted)
    run_all(SuiteConfig(suite=SUITE_IDS[0]))
    assert counts == {
        "group-axioms": 1,
        "transforms": 19,
        "paley-wiener": 2,
        "generators": 0,
        "norms": 0,
        "appendix-a": 0,
        "psi-invariance": 5,
        "tilde-space": 2,
        "semigroup-evolution": 25,
        "conjugation": 0,
    }


def test_run_all_shares_one_grid_pair(monkeypatch):
    # every suite of a run sees the base config's grid, so one run builds
    # one grid and one dual, and the pair stays exact
    base = SuiteConfig(suite=SUITE_IDS[0])
    seen = []
    for suite_id in SUITE_IDS:
        monkeypatch.setitem(heisenrep.suites.SUITES, suite_id,
                            lambda cfg, rec: seen.append(cfg.grid()))
    run_all(base)
    assert len(seen) == len(SUITE_IDS)
    assert all(grid is base.grid() for grid in seen)
    grid = base.grid()
    assert dual_grid(dual_grid(grid)) is grid


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
    assert tuple(CHECKS) == SUITE_IDS


def test_reports_record_their_catalogue_in_order():
    # each suite records every catalogued check once, in catalogue order,
    # and nothing else, with the catalogue's description and claim
    for rep in run_all(SuiteConfig(suite=SUITE_IDS[0])):
        catalogue = CHECKS[rep["suite"]]
        ids = [c.id for c in catalogue]
        recorded = [c["check"] for c in rep["checks"]]
        assert len(set(ids)) == len(ids)
        assert sorted(recorded) == sorted(ids)
        assert recorded == ids
        for entry, record in zip(catalogue, rep["checks"]):
            assert (record["description"], record["claim"]) == (entry.description, entry.claim)
            if entry.kind == "flag":
                assert (record["measured"], record["threshold"]) == (0.0, 0.0)


def test_catalogue_total_matches_the_benchmark(monkeypatch):
    # the harness-default workload counts the checks of one pass; its
    # dataclasses need the module registered while it loads
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "benchmarks", "workloads.py")
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    assert sum(map(len, CHECKS.values())) == workloads.HarnessDefault.CHECKS_PER_PASS


def _run_fresh(code: str, timeout: float = 300) -> subprocess.CompletedProcess:
    # a fresh interpreter: this process has scipy loaded by other test modules
    src = os.path.dirname(os.path.dirname(heisenrep.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_cli_window_without_a_reference_norm_exits_two(tmp_path):
    # at half-width 1e-100 the conjugate of multiplier-oracle's periodized
    # Lorentzian samples to zero, so its relative error divides by zero; run
    # as the command runs, where numpy's overflow warnings stay warnings
    out = tmp_path / "reports"
    proc = _run_fresh("import sys, heisenrep.cli\n"
                      "sys.exit(heisenrep.cli.main(['--suite', 'transforms', "
                      f"'--half-width', '1e-100', '--out', {str(out)!r}]))")
    assert proc.returncode == 2, proc.stderr
    assert ("configuration error (ConfigurationError): suite transforms, check "
            "multiplier-oracle: float division by zero" in proc.stderr
            and "half_width=1e-100, size=4096" in proc.stderr)
    assert not out.exists()


def test_cli_refused_window_prints_only_its_refusal():
    # the refusal used to follow two numpy RuntimeWarnings: an overflow in
    # gaussian-transform's y * y, where e^{-y^2/2} is 0 anyway, and one in
    # the norm of a draw, which is now the overflow the boundary refuses
    proc = _run_fresh("import sys, heisenrep.cli\n"
                      "sys.exit(heisenrep.cli.main(['--suite', 'transforms', "
                      "'--half-width', '1e-300']))")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.splitlines() == [
        "configuration error (ConfigurationError): suite transforms, check unitarity: "
        "overflow encountered in dot on the grid with half_width=1e-300, size=4096"]


@pytest.mark.parametrize("suite, check", [("group-axioms", "homomorphism"),
                                          ("transforms", "unitarity")])
def test_cli_window_with_a_non_finite_draw_exits_two(tmp_path, suite, check):
    # at half-width 1e-300 the band-limited draws keep only the zero bin and
    # their norms overflow; the boundary refuses the overflow, so no NaN
    # draw reaches a check, where max() over the draws could drop it
    out = tmp_path / "reports"
    proc = _run_fresh("import sys, heisenrep.cli\n"
                      f"sys.exit(heisenrep.cli.main(['--suite', {suite!r}, "
                      f"'--half-width', '1e-300', '--out', {str(out)!r}]))")
    assert proc.returncode == 2, proc.stderr
    assert (f"configuration error (ConfigurationError): suite {suite}, check {check}: "
            "overflow encountered in dot on the grid with half_width=1e-300, "
            "size=4096") in proc.stderr
    assert not out.exists()


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
