import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from heisenrep import annihilator, testfn
from heisenrep.annihilator import (
    AnnihilatorConfig, annihilate, annihilate_negative, build_block,
    choose_interval, mirror,
)
from heisenrep.errors import CapabilityError, ConfigurationError
from heisenrep.testfn import (
    Affine, CompactBump, GaussianPoly, Mirrored, PiecewisePoly, Summed, Translated,
    derivative, exact_l1_norm, exact_l2_norm, exact_moment, support,
)

MOTHER = CompactBump(0.1, 0.9, 6)


def _config(K=4, epsilon=1e-2):
    return AnnihilatorConfig(K=K, epsilon=epsilon, a0=1.0001, mother=MOTHER)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        AnnihilatorConfig(K=-1, epsilon=1e-2, a0=2.0, mother=MOTHER)
    with pytest.raises(ConfigurationError):
        AnnihilatorConfig(K=2, epsilon=0.0, a0=2.0, mother=MOTHER)
    with pytest.raises(ConfigurationError):
        AnnihilatorConfig(K=2, epsilon=1e-2, a0=0.5, mother=MOTHER)
    with pytest.raises(ConfigurationError):
        # support must sit inside (0, a0)
        AnnihilatorConfig(K=2, epsilon=1e-2, a0=2.0, mother=CompactBump(-1.0, 1.0, 6))
    with pytest.raises(CapabilityError):
        # p = 3 cannot supply 4 derivatives
        AnnihilatorConfig(K=4, epsilon=1e-2, a0=2.0, mother=CompactBump(0.1, 0.9, 3))
    with pytest.raises(ConfigurationError):
        # Gaussian mothers have unbounded support
        AnnihilatorConfig(K=2, epsilon=1e-2, a0=2.0,
                          mother=GaussianPoly(0.0, 1.0, (1.0,)))
    # non-finite or non-numeric epsilon and a0, non-integer K
    for bad in ({"epsilon": math.inf}, {"epsilon": math.nan}, {"epsilon": "x"},
                {"epsilon": None}, {"epsilon": True}, {"a0": math.inf}, {"a0": "2"},
                {"K": 1.5}, {"K": "2"}, {"K": True}, {"K": 2.0}):
        kwargs = {"K": 2, "epsilon": 1e-2, "a0": 2.0, "mother": MOTHER, **bad}
        with pytest.raises(ConfigurationError):
            AnnihilatorConfig(**kwargs)
    # the bump order must be an integer: the lowering expands (1 - v^2)^p
    for p in (2.5, True, "6", 6.0):
        with pytest.raises(ConfigurationError):
            CompactBump(0.1, 0.9, p)
    assert AnnihilatorConfig(K=np.int64(2), epsilon=np.float64(1e-2), a0=2,
                             mother=CompactBump(0.1, 0.9, np.int64(6))).K == 2


def test_choose_interval_passes_both_conditions():
    cfg = _config()
    I = exact_moment(MOTHER, 0).real
    a1 = choose_interval(0, cfg.a0, -0.5, cfg, I, MOTHER)
    block = build_block(0, cfg.a0, a1, -0.5, cfg, I, MOTHER)
    assert block.norm_fk < block.norm_bound
    # the block is the lowered Affine of g, and its moments read those pieces
    assert block.f_k == Affine(MOTHER, cfg.a0 / (a1 - cfg.a0), cfg.a0, block.gamma_k)
    assert isinstance(block.f_k, PiecewisePoly)
    assert testfn.to_piecewise(block.f_k) is block.f_k


def test_block_moment_identity_and_lower_orders():
    cfg = _config()
    lam = -0.3
    I = exact_moment(MOTHER, 0).real
    g1 = derivative(MOTHER, 1)
    a1 = choose_interval(1, 2.0, lam, cfg, I, g1)
    block = build_block(1, 2.0, a1, lam, cfg, I, g1)
    assert abs(exact_moment(block.f_k, 1).real - lam) < 1e-8 * abs(lam)
    assert abs(exact_moment(block.f_k, 0)) < 1e-10 * exact_l1_norm(block.f_k)


def test_annihilate_end_to_end():
    cfg = _config()
    f, blocks, report = annihilate(cfg)
    assert len(blocks) == cfg.K + 1
    # disjoint increasing supports
    assert all(blocks[i].a_k1 <= blocks[i + 1].a_k for i in range(len(blocks) - 1))
    # all residual moments cancel
    assert max(report["moment_defects"]) < 1e-6
    # distance budget and the Pythagorean identity
    assert report["l2_distance"] < cfg.epsilon
    rss = math.sqrt(math.fsum(b.norm_fk ** 2 for b in blocks))
    assert abs(rss - report["l2_distance"]) <= 1e-15 * rss
    direct = exact_l2_norm(Summed(tuple(b.f_k for b in blocks if b.gamma_k != 0.0)))
    assert abs(direct - report["l2_distance"]) < 1e-12 * direct


@pytest.mark.parametrize("mother", [
    Summed((CompactBump(0.1, 0.4, 6), CompactBump(0.5, 0.9, 6))),
    Summed((CompactBump(0.1, 0.6, 6), CompactBump(0.3, 0.9, 5))),
], ids=["disjoint", "overlapping"])
def test_two_bump_mother_annihilates(mother):
    # every block has one piece per piece of the mother, and the defects are
    # taken over all pieces of the sum
    cfg = AnnihilatorConfig(K=4, epsilon=1e-2, a0=1.0001, mother=mother)
    f, blocks, report = annihilate(cfg)
    assert f.pieces == mother.pieces + tuple(pc for b in blocks for pc in b.f_k.pieces)
    assert all(len(b.f_k.pieces) == 2 for b in blocks)
    assert max(report["moment_defects"]) <= 1e-6
    assert report["l2_distance"] < cfg.epsilon


def test_regression_anchors():
    # pinned once from the default configuration (K=4, eps=1e-2, p=6 mother)
    _, blocks, report = annihilate(_config())
    assert abs(blocks[-1].a_k1 / 17592186048519.0 - 1.0) < 1e-12
    assert abs(report["l2_distance"] / 5.536620604063098e-05 - 1.0) < 1e-8


def test_report_schema():
    _, _, report = annihilate(_config(K=2))
    assert set(report) == {"K", "epsilon", "I", "blocks", "moment_defects",
                           "l2_distance"}
    for entry in report["blocks"]:
        assert set(entry) == {"k", "a_k", "a_k1", "gamma_k", "lambda_k",
                              "norm_fk", "bound"}


def test_annihilate_negative_mirrors():
    cfg = _config(K=2)
    f_neg, blocks_neg, report = annihilate_negative(cfg)
    sup = support(f_neg)
    assert sup[-1][1] <= 0.0
    assert all(b.a_k1 <= 0.0 for b in blocks_neg)
    assert max(report["moment_defects"]) < 1e-6
    # the mirror of one run, not a second construction
    f, blocks, report = annihilate(cfg)
    assert annihilate_negative(cfg) == (*mirror(f, blocks), report)


def test_growth_cap_raises_clear_error():
    # a normalized mother with tiny epsilon forces blocks beyond float range
    with pytest.raises(ConfigurationError, match="enlarge epsilon"):
        annihilate(AnnihilatorConfig(K=6, epsilon=1e-9, a0=1.0001,
                                     mother=CompactBump(0.1, 0.9, 8)))


def test_annihilate_work_counts(monkeypatch):
    # each block is built, and so lowered to pieces, once: one Affine per
    # block and one piece per derivative of the mother and per block, and
    # every moment and norm of it reads that one PiecewisePoly; bump
    # coefficients come from the binomial theorem, never from a polynomial
    # power
    affine_calls, pieces = [], []
    affine, post_init = annihilator.Affine, testfn.Piece.__post_init__

    def counting_affine(*args):
        affine_calls.append(args)
        return affine(*args)

    def counting_piece(pc):
        pieces.append(pc)
        post_init(pc)

    def refuse(*args, **kwargs):
        raise AssertionError("polypow called")

    monkeypatch.setattr(annihilator, "Affine", counting_affine)
    monkeypatch.setattr(testfn.Piece, "__post_init__", counting_piece)
    monkeypatch.setattr(testfn.P, "polypow", refuse)
    cfg = _config()
    f, blocks, _ = annihilate(cfg)
    assert len(affine_calls) == cfg.K + 1
    # g^(k) for k = 1..K, then f_k for k = 0..K; the sum copies no piece
    assert len(pieces) == cfg.K + (cfg.K + 1)
    assert all(isinstance(b.f_k, PiecewisePoly) for b in blocks)
    assert f.pieces == cfg.mother.pieces + tuple(pc for b in blocks for pc in b.f_k.pieces)


def test_annihilate_derives_each_block_once(monkeypatch):
    # one derivative step per block, g^(k) from g^(k-1), handed to
    # choose_interval and build_block; the bump was lowered when it was
    # built, so lowering the mother hands it back unchanged
    calls = []
    original = annihilator.derivative

    def counting(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(annihilator, "derivative", counting)
    cfg = _config()
    annihilate(cfg)
    assert len(calls) == cfg.K + 1
    assert testfn.to_piecewise(cfg.mother) is cfg.mother


def test_annihilate_tabulates_each_piece_once(monkeypatch):
    # one moment table, orders 0..K, per piece of the sum: the mother's when
    # the run starts and each kept block's when build_block verifies it;
    # lambda_k, the block checks and the report read them, and nothing asks
    # for a single order
    tabulated = []
    original = testfn._piece_moments

    def counting(pc, n_max):
        tabulated.append((pc, n_max))
        return original(pc, n_max)

    def single_order(*args):
        raise AssertionError("annihilate asked exact_moment for one order")
    monkeypatch.setattr(testfn, "_piece_moments", counting)
    monkeypatch.setattr(testfn, "exact_moment", single_order)
    cfg = _config(K=4, epsilon=1e-2)
    f, blocks, report = annihilate(cfg)
    assert len(f.pieces) == 1 + sum(b.gamma_k != 0.0 for b in blocks) > 1
    assert len(tabulated) == len(f.pieces)
    assert all(pc is piece and n_max == cfg.K
               for (pc, n_max), piece in zip(tabulated, f.pieces))
    tabulated.clear()
    assert annihilator.moment_defects(f, cfg.K) == report["moment_defects"]
    assert [pc for pc, _ in tabulated] == list(f.pieces)


def test_closed_form_path_pinned():
    # the annihilate reports, and the exact norms and moments of the sums
    # translated and mirrored, over p = 2..8, K <= min(p - 1, 4) and two
    # epsilons; a refactor of the descriptor algebra keeps every bit
    h = hashlib.sha256()
    for p in range(2, 9):
        for K in range(min(p - 1, 4) + 1):
            for eps in (1e-2, 1e-3):
                cfg = AnnihilatorConfig(K=K, epsilon=eps, a0=1.0001,
                                        mother=CompactBump(0.1, 0.9, p))
                try:
                    f, _, report = annihilate(cfg)
                except (ConfigurationError, CapabilityError) as exc:
                    h.update(f"{type(exc).__name__}: {exc}\n".encode())
                    continue
                h.update(json.dumps(report, sort_keys=True).encode())
                for tf in (Translated(f, -2.5), Translated(f, 1e13), Mirrored(f)):
                    values = [exact_l2_norm(tf)] + [exact_moment(tf, n) for n in range(K + 1)]
                    h.update(repr([complex(v) for v in values]).encode())
    assert h.hexdigest() == (
        "4f7f2ada9273d061fcf768621fb373c6c06ce0cd38e40ffb8cf0c68115da698d")


@st.composite
def annihilator_configs(draw):
    a0 = draw(st.floats(1.0001, 30.0))
    a = draw(st.floats(0.0, a0))
    b = draw(st.floats(a, a0))
    assume(a < b)
    return dict(K=draw(st.integers(0, 8)), epsilon=10.0 ** draw(st.floats(-8.0, 0.5)),
                a0=a0, mother=(a, b, draw(st.integers(1, 13))))


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(annihilator_configs())
# a bump this narrow has an integral (p = 2) or an L^2 norm (p = 1) that
# underflows to zero; both used to end in ZeroDivisionError or ValueError
@example({"K": 0, "epsilon": 1.0, "a0": 2.0, "mother": (0.0, 3.868247328619375e-98, 2)})
@example({"K": 0, "epsilon": 1.0, "a0": 2.0, "mother": (0.0, 3.868247328619375e-98, 1)})
def test_annihilator_config_fuzz(draw):
    # every configuration either is refused with a typed error or yields
    # blocks that satisfy each invariant the construction promises
    try:
        cfg = AnnihilatorConfig(**{**draw, "mother": CompactBump(*draw["mother"])})
        _, blocks, report = annihilate(cfg)
    except (ConfigurationError, CapabilityError):
        return
    hi = cfg.a0
    for b in blocks:
        assert hi <= b.a_k < b.a_k1
        if b.gamma_k != 0.0:
            assert b.a_k <= support(b.f_k)[0][0] and support(b.f_k)[-1][1] <= b.a_k1
        assert b.lower_defect <= 1e-10 and b.moment_error <= 1e-8
        assert b.norm_fk < b.norm_bound
        hi = b.a_k1
    assert max(report["moment_defects"]) <= 1e-6
    assert report["l2_distance"] < cfg.epsilon
