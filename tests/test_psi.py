import numpy as np
import pytest

import heisenrep.psi
from heisenrep import (
    GroupElement, SampledFunction, act, fourier, hilbert, make_grid, norm, proj_hardy,
)
from heisenrep.errors import (
    ClassMembershipError, ConfigurationError, GridMismatchError, SemigroupDomainError,
)
from heisenrep.psi import (
    act_psi, certify_nminus, coincidence_defect, contraction_contrast,
    halfline_contraction, hardy_semigroup_step, invariance_witness, pair_terms,
    psi_norm, snap_to_grid, synthesize, tilde_norm, tilde_synthesize,
)
from heisenrep.schwartz import moment_orders, seminorm_tower
from heisenrep.testfn import (
    Affine, CompactBump, GaussianPoly, Translated, derivative, sample,
)
from heisenrep.transforms import inverse_fourier
from heisenrep.grid import dual_grid

GRID = make_grid(32.0, 4096)
EDGE = Translated(derivative(CompactBump(0.0, 1.0, 10), 5), -1.0)
WIDE = Translated(derivative(CompactBump(0.0, 10.0, 10), 5), -10.0)


def test_snap_to_grid():
    dx = GRID.spacing
    assert snap_to_grid(3.0 * dx + 1e-12, GRID) == 3.0 * dx
    assert snap_to_grid(0.0, GRID) == 0.0
    assert type(snap_to_grid(1.0, GRID)) is float
    # a stack snaps each shift as round() snaps it alone: halves go to even
    shifts = np.array([-2.5 * dx, -0.5 * dx, 0.5 * dx, 1.5 * dx, 1.0, -3.0 * dx - 1e-12])
    snapped = snap_to_grid(shifts, GRID)
    assert snapped.tolist() == [round(s / dx) * dx for s in shifts.tolist()]
    assert snapped.tolist() == [-2 * dx, -0.0, 0.0, 2 * dx, 1.0, -3.0 * dx]
    for bad in (np.inf, np.nan, 1e308, np.array([0.0, np.inf])):
        with pytest.raises(ConfigurationError, match="finite"):
            snap_to_grid(bad, GRID)


def test_certify_accepts_edge_and_wide():
    for desc in (EDGE, WIDE):
        samples, defect = certify_nminus(desc, GRID, 4)
        assert np.array_equal(samples.values, sample(desc, GRID).values)
        assert defect < 1e-6


def test_certify_rejects_positive_support():
    with pytest.raises(ClassMembershipError, match="support"):
        certify_nminus(CompactBump(-1.0, 1.0, 10), GRID)


def test_certify_rejects_nonvanishing_moments():
    with pytest.raises(ClassMembershipError, match="moment defect"):
        certify_nminus(CompactBump(-2.0, -1.0, 10), GRID)


def test_certify_rejects_window_overflow():
    far = Translated(derivative(CompactBump(0.0, 8.0, 10), 5), -40.0)
    with pytest.raises(ClassMembershipError, match="window"):
        certify_nminus(far, GRID)


def test_synthesize_and_coincidence():
    psi = synthesize(EDGE, WIDE, GRID)
    assert norm(psi.samples) > 0
    # the certified samples and the larger of the two certificates' defects
    (g, g_defect), (h, h_defect) = (certify_nminus(d, GRID, 4) for d in (EDGE, WIDE))
    assert np.array_equal(psi.g.values, g.values)
    assert np.array_equal(psi.h.values, h.values)
    assert psi.n_defect == max(g_defect, h_defect)
    assert coincidence_defect(g) < 1e-12


def test_coincidence_defect_takes_a_stack_of_samples():
    # one defect per row, each bit-identical to the row measured alone
    rows = [sample(Affine(d, gain=k), GRID) for d in (EDGE, WIDE) for k in (1.0, 2.0 - 1j)]
    stack = SampledFunction(GRID, [u.values for u in rows])
    defects = coincidence_defect(stack)
    assert defects.shape == (4,)
    assert defects.tolist() == [coincidence_defect(u) for u in rows]
    assert max(defects) < 1e-12
    # mass on x >= 0 shows
    assert coincidence_defect(sample(CompactBump(1.0, 2.0, 4), GRID)) > 0.9


def test_equal_pair_is_hilbert_transform():
    psi = synthesize(EDGE, EDGE, GRID)
    g = sample(EDGE, GRID)
    assert norm(psi.samples - hilbert(g, "multiplier")) < 1e-10 * norm(g)


def test_act_psi_semigroup_guard():
    psi = synthesize(EDGE, WIDE, GRID)
    with pytest.raises(SemigroupDomainError):
        act_psi(GroupElement(-1.0, 0.0, 0.0), psi)
    with pytest.raises(SemigroupDomainError):
        act_psi(GroupElement(1.0, 0.5, 0.0), psi)


def test_act_psi_moves_support_left():
    psi = synthesize(EDGE, WIDE, GRID)
    moved, snapped = act_psi(GroupElement(1.0, 0.0, 0.5), psi)
    assert snapped.xi1 == snap_to_grid(1.0, GRID)
    assert moved.n_defect < 1e-6


def test_act_psi_recertifies_to_the_pairs_order(monkeypatch):
    # a third derivative has vanishing moments 0..2 only, so its pair holds
    # at order 2 and moves by certifying that order again, not a default
    third = Translated(derivative(CompactBump(0.0, 1.0, 10), 3), -1.5)
    with pytest.raises(ClassMembershipError):
        certify_nminus(third, GRID, 3)
    psi = synthesize(third, third, GRID, max_moment=2)
    orders = []

    def recording(desc, grid, max_moment=4):
        orders.append(max_moment)
        return certify_nminus(desc, grid, max_moment)

    monkeypatch.setattr(heisenrep.psi, "certify_nminus", recording)
    moved, _ = act_psi(GroupElement(1.0, 0.0, 0.5), psi)
    assert orders == [2, 2]
    assert moved.max_moment == 2 and moved.n_defect < 1e-6


def test_invariance_witness_directions():
    psi = synthesize(EDGE, WIDE, GRID)
    assert invariance_witness(GroupElement(-0.5, 0.0, 0.0), psi.g) > 0.1
    assert invariance_witness(GroupElement(0.0, 1.0, 0.0), psi.h) > 0.1
    assert invariance_witness(GroupElement(1.0, 0.0, 0.0), psi.g) == 0.0
    # a modulation keeps its translation and phase: the order-0 defect of U(xi) g
    xi = GroupElement(2.0, 1.0, 0.3)
    assert invariance_witness(xi, psi.h) == next(moment_orders(act(xi, psi.h, mode="grid"))).defect


def test_invariance_witness_stacks_translations():
    # the plus-side spill of each translation, bit-identical to one at a time,
    # and zero from xi1 = 0 on
    psi = synthesize(EDGE, WIDE, GRID)
    xi1 = np.linspace(-2.0, 1.0, 13)
    spill = invariance_witness(GroupElement(xi1, 0.0, 0.7), psi.g)
    assert spill.shape == (13,)
    assert spill.tolist() == [invariance_witness(GroupElement(a, 0.0, 0.7), psi.g)
                              for a in xi1.tolist()]
    assert np.all(spill[xi1 >= 0] == 0.0)
    assert np.all(np.diff(spill[xi1 <= 0]) <= 0.0) and spill[0] > 0.1
    before, after = contraction_contrast(GroupElement(-0.5, 0.0, 0.7), psi.g)
    assert spill[6] == after / before


def test_tilde_routes_agree():
    psi = synthesize(EDGE, WIDE, GRID)
    phi = tilde_synthesize(psi.g, psi.h)
    via = fourier(psi.samples)
    assert norm(phi - via) < 1e-12 * norm(via)


def test_tilde_synthesize_refuses_two_grids():
    # one size, two windows: the spectra live on different dual grids
    g = SampledFunction(make_grid(8.0, 64), np.ones(64))
    h = SampledFunction(make_grid(4.0, 64), np.ones(64))
    with pytest.raises(GridMismatchError):
        tilde_synthesize(g, h)


def test_tilde_norm_matches_pair_norm():
    g, h = sample(EDGE, GRID), sample(WIDE, GRID)
    tilde, pair = tilde_norm(g, h, 2), psi_norm(g, h, 2)
    assert len(tilde) == len(pair) == 3
    for a, b in zip(tilde, pair):
        assert abs(a - b) < 1e-6 * b
    # order k of a call does not depend on the top order asked for
    for n in (0, 1):
        assert tilde_norm(g, h, n) == tilde[:n + 1]


def _parent_psi_norm(g, h, n):
    """The pair norm's former formula, one projection and one tower per term."""
    towers = [seminorm_tower(t, n) for t in (
        proj_hardy(g, "plus") * (-1j),
        proj_hardy(h, "minus") * 1j,
        proj_hardy(g, "minus") * 1j,
        proj_hardy(h, "plus") * (-1j),
    )]
    return [float(np.sqrt(sum(tower[k] ** 2 for tower in towers))) for k in range(n + 1)]


@pytest.mark.filterwarnings("error")
def test_pair_terms_and_synthesize_bit_identical_to_one_projection_at_a_time():
    g, h = sample(EDGE, GRID), sample(WIDE, GRID)
    terms = pair_terms(g, h)
    assert terms.grid == GRID and terms.values.shape == (4, GRID.size)
    expected = (proj_hardy(g, "plus") * (-1j), proj_hardy(h, "minus") * 1j,
                proj_hardy(g, "minus") * 1j, proj_hardy(h, "plus") * (-1j))
    for row, ref in zip(terms.values, expected):
        assert row.tobytes() == ref.values.tobytes()
    for h_desc in (WIDE, EDGE):
        psi = synthesize(EDGE, h_desc, GRID)
        ref = proj_hardy(psi.g, "plus") * (-1j) + proj_hardy(psi.h, "minus") * 1j
        assert psi.samples.values.tobytes() == ref.values.tobytes()


@pytest.mark.filterwarnings("error")
def test_psi_norm_bit_identical_to_one_tower_per_term():
    rng = np.random.default_rng(17)
    pairs = [(sample(EDGE, GRID), sample(WIDE, GRID)),
             tuple(SampledFunction(GRID, rng.standard_normal(GRID.size)
                                   + 1j * rng.standard_normal(GRID.size)) for _ in range(2))]
    for g, h in pairs:
        for n in range(4):
            assert psi_norm(g, h, n) == _parent_psi_norm(g, h, n)


@pytest.mark.filterwarnings("error")
def test_pair_norms_refuse_two_grids_and_stacks():
    # psi_norm of these Gaussians returned [1.84, 7.38], mixing the two grids
    g = sample(GaussianPoly(0.0, 1.0, (1.0,)), make_grid(32.0, 64))
    h = sample(GaussianPoly(0.0, 1.0, (1.0,)), make_grid(16.0, 64))
    stack = SampledFunction(g.grid, np.ones((2, 64)))
    for call in (lambda a, b: pair_terms(a, b), lambda a, b: psi_norm(a, b, 1),
                 lambda a, b: tilde_norm(a, b, 1), tilde_synthesize):
        with pytest.raises(GridMismatchError, match="different grids"):
            call(g, h)
        for a, b in ((stack, g), (g, stack), (stack, stack)):
            with pytest.raises(GridMismatchError, match="takes one function"):
                call(a, b)


@pytest.mark.filterwarnings("error")
def test_zero_samples_refused_by_the_witnesses():
    # they divided by ||u|| = 0: a bare ZeroDivisionError, or NaN rows
    zero = SampledFunction(GRID, np.zeros(GRID.size))
    rows = SampledFunction(GRID, [sample(EDGE, GRID).values, np.zeros(GRID.size)])
    for call in (lambda: coincidence_defect(zero), lambda: coincidence_defect(rows),
                 lambda: invariance_witness(GroupElement(-1.0, 0.0, 0.0), zero),
                 lambda: invariance_witness(GroupElement(np.array([-1.0, 0.5]), 0.0, 0.0), rows)):
        with pytest.raises(ClassMembershipError, match="samples are zero"):
            call()


def test_halfline_contraction_guard_and_value():
    f = sample(CompactBump(1.0, 2.0, 4), GRID)
    before, after = halfline_contraction(GroupElement(-1.0, 0.5, 0.2), f)
    assert after <= before * (1 + 1e-12)
    with pytest.raises(SemigroupDomainError):
        halfline_contraction(GroupElement(1.0, 0.0, 0.0), f)
    g = sample(CompactBump(-2.0, -1.0, 4), GRID)
    with pytest.raises(ClassMembershipError):
        halfline_contraction(GroupElement(-1.0, 0.0, 0.0), g)


def test_halfline_contraction_takes_stacks():
    # one pair per row, bit-identical to one row at a time; every element and
    # every row is guarded
    bumps = [CompactBump(left, left + 1.0, 4) for left in (0.5, 2.0, 7.0)]
    f = SampledFunction(GRID, [sample(b, GRID).values for b in bumps])
    xi = GroupElement(np.array([-1.0, 0.0, -4.5]), np.array([0.5, -2.0, 3.0]),
                      np.array([0.2, 0.0, -1.0]))
    before, after = halfline_contraction(xi, f)
    assert before.shape == after.shape == (3,)
    singles = [halfline_contraction(GroupElement(a, b, c), sample(bump, GRID))
               for a, b, c, bump in zip(xi.xi1.tolist(), xi.xi2.tolist(), xi.xi3.tolist(),
                                        bumps)]
    assert before.tolist() == [s[0] for s in singles]
    assert after.tolist() == [s[1] for s in singles]
    assert np.all(after <= before * (1 + 1e-12))
    with pytest.raises(SemigroupDomainError):
        halfline_contraction(GroupElement(np.array([-1.0, 0.5, -1.0]), 0.0, 0.0), f)
    mixed = SampledFunction(GRID, [f.values[0], sample(CompactBump(-2.0, -1.0, 4), GRID).values,
                                   f.values[2]])
    with pytest.raises(ClassMembershipError):
        halfline_contraction(xi, mixed)


def test_contraction_contrast_loses_norm():
    f = sample(CompactBump(0.5, 1.5, 4), GRID)
    before, after = contraction_contrast(GroupElement(1.0, 0.0, 0.0), f)
    assert after <= 0.9 * before
    for xi1 in (np.nan, np.inf):
        with pytest.raises(ConfigurationError):
            contraction_contrast(GroupElement(xi1, 0.0, 0.0), f)
    # a stack of shifts, each snapped to the grid: one pair per element
    xi1 = np.array([1.0, 0.0, -0.5, 1.5 + 0.3 * GRID.spacing])
    before, after = contraction_contrast(GroupElement(xi1, 0.0, 0.0), f)
    assert before == norm(f)
    assert after.tolist() == [contraction_contrast(GroupElement(a, 0.0, 0.0), f)[1]
                              for a in xi1.tolist()]
    assert after[0] <= 0.9 * before and after[1] == after[2] == before and after[3] == 0.0


def test_hardy_semigroup_step_directions():
    spec = sample(CompactBump(0.25, 6.0, 10), dual_grid(GRID))
    smooth = inverse_fourier(spec)
    assert hardy_semigroup_step(smooth, [5.0]).shape == (1,)
    assert hardy_semigroup_step(smooth, [5.0])[0] < 1e-6
    witness = inverse_fourier(sample(CompactBump(0.1, 1.0, 8), dual_grid(GRID)))
    assert hardy_semigroup_step(witness, [-0.5])[0] > 1e-2
    bad = sample(GaussianPoly(0.0, 1.0, (1.0,)), GRID)
    with pytest.raises(ClassMembershipError):
        hardy_semigroup_step(bad, [1.0])


def test_hardy_semigroup_step_stack_matches_one_at_a_time():
    # 9 modulations span three chunks at N = 4096; each defect is bit-identical
    # to that of its modulation measured alone
    witness = inverse_fourier(sample(CompactBump(0.1, 1.0, 8), dual_grid(GRID)))
    xi2s = np.linspace(-1.0, 1.0, 9)
    defects = hardy_semigroup_step(witness, xi2s)
    assert defects.shape == (9,)
    assert defects.tolist() == [hardy_semigroup_step(witness, [x])[0] for x in xi2s]
    assert hardy_semigroup_step(witness, []).shape == (0,)


def test_hardy_semigroup_step_refuses_a_stacked_input():
    # the modulations are the stack; f is one Hardy-plus function
    witness = inverse_fourier(sample(CompactBump(0.1, 1.0, 8), dual_grid(GRID)))
    stack = SampledFunction(GRID, [witness.values, witness.values])
    with pytest.raises(GridMismatchError, match="takes one function"):
        hardy_semigroup_step(stack, [0.5])


def test_amplified_descriptor_certifies():
    _, defect = certify_nminus(Affine(EDGE, gain=2.0 - 1j), GRID, 4)
    assert defect < 1e-6
