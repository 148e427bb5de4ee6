"""Iteration-lemma formulas, hypothesis certification, synthetic assertions."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hessianlab import DomainError, degiorgi_threshold, kolodziej_bound
from hessianlab.iteration import (
    DEGIORGI,
    DEGIORGI_CASES,
    FAMILY_SAMPLES,
    KOLODZIEJ,
    KOLODZIEJ_CASES,
    assert_degiorgi_families,
    assert_kolodziej_families,
    certify_iteration_hypothesis,
    lemma_sweep,
    synthetic_degiorgi_families,
    synthetic_kolodziej_families,
)

from conftest import certify_oracle

NONFINITE = (math.nan, math.inf, -math.inf)


class TestKolodziejBound:
    def test_algebraic_identity(self):
        for delta0 in (0.5, 1.0, 2.0):
            s0 = 1.7
            c0 = 0.5 * (1.0 - 2.0**-delta0) * s0
            assert kolodziej_bound(c0, delta0, s0) == pytest.approx(1.0)

    def test_direct_substitution(self):
        assert kolodziej_bound(1.0, 1.0, 1.0) == pytest.approx(0.25)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            kolodziej_bound(0.0, 1.0, 1.0)

    @pytest.mark.parametrize("bad", NONFINITE)
    @pytest.mark.parametrize("slot", range(3))
    def test_rejects_nonfinite(self, slot, bad):
        args = [1.0, 1.0, 1.0]
        args[slot] = bad
        with pytest.raises(DomainError):
            kolodziej_bound(*args)


class TestDeGiorgiThreshold:
    def test_direct_substitution(self):
        assert degiorgi_threshold(1.0, 1.0, 1.0, 1.0) == pytest.approx(4.0)

    def test_degenerate_level(self):
        assert degiorgi_threshold(2.0, 1.5, 0.7, 0.0) == 0.0

    def test_rejects_bad_constants(self):
        with pytest.raises(DomainError):
            degiorgi_threshold(1.0, -1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            degiorgi_threshold(1.0, 1.0, 1.0, -0.5)

    @pytest.mark.parametrize("bad", NONFINITE)
    @pytest.mark.parametrize("slot", range(4))
    def test_rejects_nonfinite(self, slot, bad):
        args = [1.0, 1.0, 1.0, 1.0]
        args[slot] = bad
        with pytest.raises(DomainError):
            degiorgi_threshold(*args)


class TestCertify:
    def test_linear_function_quarter(self):
        s = np.arange(1, 241) / 240.0
        c_min, feasible = certify_iteration_hypothesis(s, s, KOLODZIEJ, delta0=1.0)
        assert feasible
        assert c_min == pytest.approx(0.25, rel=1e-12)

    def test_non_monotone_infeasible(self):
        s = np.linspace(0.1, 1.0, 20)
        phi = np.sin(8 * s) + 2.0
        _, feasible = certify_iteration_hypothesis(s, phi, KOLODZIEJ, delta0=1.0)
        assert not feasible

    def test_constant_function(self):
        # ratio t * phi / phi^(1+delta0) grows with the gap t, so the
        # certificate is attained by the widest sampled pair
        s = np.linspace(0.1, 2.0, 60)
        phi = np.full_like(s, 1.7)
        c_min, feasible = certify_iteration_hypothesis(s, phi, KOLODZIEJ, delta0=1.0)
        assert feasible
        widest = s[-2] - s[0]  # largest s strictly below s0 = 2.0
        assert c_min == pytest.approx(widest * 1.7 / 1.7**2, rel=1e-12)

    def test_degiorgi_increasing_infeasible(self):
        s = np.linspace(1.0, 2.0, 20)
        _, feasible = certify_iteration_hypothesis(s, s, DEGIORGI, alpha=1.0, delta=1.0)
        assert not feasible

    def test_needs_parameters(self):
        s = np.linspace(0.1, 1.0, 10)
        with pytest.raises(DomainError):
            certify_iteration_hypothesis(s, s, KOLODZIEJ)
        with pytest.raises(DomainError):
            certify_iteration_hypothesis(s, s, "unknown-form", delta0=1.0)

    @pytest.mark.parametrize("bad", NONFINITE)
    def test_rejects_nonfinite_samples(self, bad):
        s = np.linspace(0.1, 1.0, 10)
        for form, params in ((KOLODZIEJ, {"delta0": 1.0}),
                             (DEGIORGI, {"alpha": 1.0, "delta": 1.0})):
            s_bad, phi_bad = s.copy(), s.copy()
            s_bad[4] = bad
            phi_bad[4] = bad
            with pytest.raises(DomainError):
                certify_iteration_hypothesis(s_bad, s, form, **params)
            with pytest.raises(DomainError):
                certify_iteration_hypothesis(s, phi_bad, form, **params)

    @pytest.mark.parametrize("bad", NONFINITE)
    def test_rejects_nonfinite_parameters(self, bad):
        s = np.linspace(0.1, 1.0, 10)
        with pytest.raises(DomainError):
            certify_iteration_hypothesis(s, s, KOLODZIEJ, delta0=bad)
        with pytest.raises(DomainError):
            certify_iteration_hypothesis(s, s[::-1], DEGIORGI, alpha=bad, delta=1.0)
        with pytest.raises(DomainError):
            certify_iteration_hypothesis(s, s[::-1], DEGIORGI, alpha=1.0, delta=bad)

    def test_kolodziej_needs_sample_below_s0(self):
        s = np.full(5, 0.7)
        with pytest.raises(DomainError, match="below s0"):
            certify_iteration_hypothesis(s, np.ones(5), KOLODZIEJ, delta0=1.0)

    @pytest.mark.parametrize("form, s, phi, params", [
        # phi^3 underflows to 0, so the first row reads 0/0
        (KOLODZIEJ, [0.0, 1e-200, 2e-200], [1e-300] * 3, {"delta0": 2.0}),
        # the squared gap to a positive phi overflows
        (DEGIORGI, [0.0, 1e200, 2e200], [1.0, 1.0, 0.0], {"alpha": 2.0, "delta": 1.0}),
    ])
    def test_nonfinite_certificate_is_named(self, form, s, phi, params):
        with np.errstate(all="ignore"):
            c_oracle, _ = certify_oracle(s, phi, form, **params)
        assert not math.isfinite(c_oracle)
        with pytest.raises(DomainError, match=f"{form} certificate is not finite in row 0"):
            certify_iteration_hypothesis(s, phi, form, **params)
        # the same samples as row 2 of a stack, behind a finite row and an infeasible one
        stack_s = np.array([[0.1, 0.2, 0.3], [0.1, 0.2, 0.3], s])
        stack_phi = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 1.0], phi])
        with pytest.raises(DomainError, match=f"{form} certificate is not finite in row 2"):
            certify_iteration_hypothesis(stack_s, stack_phi, form, **params)

    def test_one_family_returns_floats(self):
        s = np.linspace(0.1, 1.0, 10)
        c_min, feasible = certify_iteration_hypothesis(s, s, KOLODZIEJ, delta0=1.0)
        assert type(c_min) is float and type(feasible) is bool
        stacked = certify_iteration_hypothesis(s[None], s[None], KOLODZIEJ, delta0=1.0)
        assert stacked[0].shape == stacked[1].shape == (1,)
        assert (stacked[0][0], stacked[1][0]) == (c_min, feasible)

    def test_stack_shapes_must_match(self):
        s = np.linspace(0.1, 1.0, 10)
        with pytest.raises(DomainError, match="3 matching samples"):
            certify_iteration_hypothesis(np.stack([s, s]), s, KOLODZIEJ, delta0=1.0)
        with pytest.raises(DomainError, match="3 matching samples"):
            certify_iteration_hypothesis(s[:2][None], s[:2][None], KOLODZIEJ, delta0=1.0)
        with pytest.raises(DomainError, match="3 matching samples"):
            certify_iteration_hypothesis(s.reshape(1, 2, 5), s.reshape(1, 2, 5), KOLODZIEJ,
                                         delta0=1.0)

    def test_degiorgi_padded_row_meets_no_overflow(self):
        # row 0's support is 2 samples of the 3-wide window; its zero sample
        # at 1e200 would square to inf, times phi = 0, were it not padded
        s = np.array([[0.0, 1.0, 1e200], [0.0, 1.0, 2.0]])
        phi = np.array([[1.0, 1.0, 0.0], [3.0, 2.0, 1.0]])
        c_min, feasible = certify_iteration_hypothesis(s, phi, DEGIORGI, alpha=2.0, delta=1.0)
        for i in range(2):
            assert (c_min[i], feasible[i]) == certify_oracle(s[i], phi[i], DEGIORGI,
                                                             alpha=2.0, delta=1.0)

    def test_kolodziej_lonely_row_is_named(self):
        s = np.array([[0.1, 0.2, 0.3], [0.7, 0.7, 0.7]])
        with pytest.raises(DomainError, match=r"below s0 = max\(s\) \(row 1\)"):
            certify_iteration_hypothesis(s, np.ones_like(s), KOLODZIEJ, delta0=1.0)


EXPONENTS = st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.1, 4.0)
S_POOL = st.sampled_from([0.125 * i for i in range(1, 17)]) | st.floats(0.01, 3.0)
PHI_POOL = st.sampled_from([0.25, 0.5, 1.0, 1.5, 3.0]) | st.floats(1e-2, 10.0)


@st.composite
def level_stacks(draw, zeros, families=6):
    """A stack ``(rows, samples)`` of 1 to ``families`` unsorted (s, phi) rows.

    The samples index two small pools, drawn once per stack from S_POOL and
    PHI_POOL, so ties in s and repeated phi values are common.  A row draws
    its indices as one byte string, a byte per sample, shifted by the sample
    position so that the all-zero string is not a constant row.  A row's phi
    is nondecreasing or nonincreasing along sorted s, or in half the rows
    along the draw order, which shuffles it against s, so infeasible for
    both forms.  ``zeros`` lets phi take the value 0, including the
    all-zero and single-positive rows, so every support width occurs.
    """
    k = draw(st.integers(3, 30))
    s_pool = np.array(draw(st.lists(S_POOL, min_size=8, max_size=16)))
    phi_pool = np.array(draw(st.lists(PHI_POOL | st.just(0.0) if zeros else PHI_POOL,
                                      min_size=1, max_size=8)))

    def samples(pool):
        index = np.frombuffer(draw(st.binary(min_size=k, max_size=k)), np.uint8) + np.arange(k)
        return pool[index % len(pool)]

    s_rows, phi_rows = [], []
    for _ in range(draw(st.integers(1, families))):
        s, phi = samples(s_pool), np.sort(samples(phi_pool))
        if zeros and draw(st.booleans()):
            # a single positive value, or none at all
            phi[:-1] = 0.0
            if draw(st.booleans()):
                phi[-1] = 0.0
        order = np.argsort(s) if draw(st.booleans()) else np.arange(k)
        by_s = np.empty(k)
        by_s[order] = phi if draw(st.booleans()) else phi[::-1]
        s_rows.append(s)
        phi_rows.append(by_s)
    return np.array(s_rows), np.array(phi_rows)


@st.composite
def tie_stacks(draw):
    """(form, s, phi, params): 1 to 4 families of k = 3 to 240 samples built around ties.

    Each family is a power law a x^theta on a uniform grid, x = s for
    Kolodziej and x = (cut - s)_+ for De Giorgi, where theta can make the
    lemma tight (theta delta0 = 1, or theta delta = alpha).  Runs of equal s
    and runs of equal phi put exact ties in the pair matrix, an alternating
    wobble of 5e-15 makes phi fall within the 1e-14 monotonicity slack, and
    the De Giorgi cuts give the rows of a stack different supports, so the
    kernel pads them.
    """
    k = draw(st.integers(3, 240))
    form = draw(st.sampled_from([KOLODZIEJ, DEGIORGI]))
    exponent, delta = (draw(st.sampled_from([0.5, 1.0, 2.0])) for _ in range(2))
    if form == KOLODZIEJ:
        params, tight = {"delta0": exponent}, 1.0 / exponent
    else:
        params, tight = {"alpha": exponent, "delta": delta}, exponent / delta
    grid, index = np.arange(1, k + 1) / k, np.arange(k)
    s_rows, phi_rows = [], []
    for _ in range(draw(st.integers(1, 4))):
        s_run, phi_run = draw(st.integers(1, min(3, k - 1))), draw(st.integers(1, 8))
        s = draw(st.sampled_from([0.5, 1.0, 1.7])) * grid[index // s_run * s_run]
        x = grid[index // phi_run * phi_run]
        if form == DEGIORGI:
            x = np.maximum(0.0, draw(st.integers(0, k)) / k + 0.5 / k - x)
        theta = draw(st.sampled_from([tight, 0.5, 1.0, 2.0]))
        phi = draw(st.sampled_from([0.5, 1.0, 1.3])) * x ** theta
        if draw(st.booleans()):
            phi *= 1.0 + (1 if form == DEGIORGI else -1) * 5e-15 * (index % 2)
        s_rows.append(s)
        phi_rows.append(phi)
    return form, np.array(s_rows), np.array(phi_rows), params


def pinned(s, phi):
    return np.array([s]), np.array([phi], dtype=float)


class TestCertifyOracle:
    """The anchor-window kernel equals the full ratio-matrix max to the bit.

    Pinned examples put equal s on both sides of the middle row of the k
    samples, at odd and even k, with runs of equal phi.  Two more pin two
    columns one ulp apart in s and phi, whose winner flips by rounding as
    s_j grows: a window cut at the anchors' exact argmaxes, not at their
    near-max columns, misses a row max.
    """

    @settings(max_examples=200, deadline=None)
    @given(level_stacks(zeros=False, families=1), EXPONENTS)
    # 7 inner samples, h = 4
    @example(pinned([0.1, 0.2, 0.3, 0.4, 0.4, 0.5, 0.6, 0.7], [1, 1, 1, 2, 2, 2, 3, 3]), 1.0)
    # 8 inner samples, h = 4
    @example(pinned([0.1, 0.2, 0.3, 0.4, 0.4, 0.5, 0.6, 0.7, 0.8], range(1, 10)), 0.5)
    # column 1 wins rows 2-3 by rounding, column 0 anchor row 4: the
    # window of rows 1-3 must reach past anchor 4's argmax
    @example(pinned([1.2395252079666916, 1.2395252079666919] + [3.664674511245496] * 2
                    + [3.8289694351627457] * 6, [1.5123499633587707] + [1.512349963358771] * 9),
             1.0)
    # column 1 wins anchor row 4, column 0 rows 5-7: the window of rows 5-7
    # must start before anchor 4's argmax
    @example(pinned([1.154030335623291, 1.1540303356232913] + [2.5025778114202257] * 3
                    + [3.16168406174976] * 3 + [3.66168406174976] * 2,
                    [2.498409499604557] + [2.4984094996045574] * 9), 1.0)
    def test_kolodziej_matches_oracle(self, stack, delta0):
        (s,), (phi,) = stack
        if np.all(s == s.max()):
            with pytest.raises(DomainError):
                certify_iteration_hypothesis(s, phi, KOLODZIEJ, delta0=delta0)
            return
        got = certify_iteration_hypothesis(s, phi, KOLODZIEJ, delta0=delta0)
        assert got == certify_oracle(s, phi, KOLODZIEJ, delta0=delta0)

    @settings(max_examples=200, deadline=None)
    @given(level_stacks(zeros=True, families=1), EXPONENTS, EXPONENTS)
    # a support of 5 samples, h = 3 on the reflected support
    @example(pinned([0.1, 0.2, 0.2, 0.3, 0.4, 0.5, 0.6], [3, 2, 2, 1, 1, 0, 0]), 2.0, 0.5)
    # a support of 6 samples, h = 3
    @example(pinned([0.1, 0.2, 0.3, 0.3, 0.4, 0.5, 0.6, 0.7], [3, 3, 2, 2, 1, 0.5, 0, 0]),
             1.0, 1.0)
    def test_degiorgi_matches_oracle(self, stack, alpha, delta):
        (s,), (phi,) = stack
        got = certify_iteration_hypothesis(s, phi, DEGIORGI, alpha=alpha, delta=delta)
        assert got == certify_oracle(s, phi, DEGIORGI, alpha=alpha, delta=delta)

    @pytest.mark.parametrize("s, phi", [
        ([0.3, 0.1, 0.2], [2.0, 1.0, 1.5]),
        ([0.2, 0.2, 0.1], [1.0, 1.0, 0.5]),
        ([0.1, 0.3, 0.2], [1.0, 0.0, 0.5]),
        ([0.1, 0.2, 0.3], [0.0, 0.0, 0.0]),
        # equal s across the split of the 2 inner (Kolodziej) or 3 (De Giorgi) samples
        ([0.1, 0.1, 0.3], [1.0, 1.0, 1.0]),
        # a single positive sample: a one-row kernel
        ([0.1, 0.2, 0.3], [1.0, 0.0, 0.0]),
    ])
    def test_three_samples_match_oracle(self, s, phi):
        for form, params in ((KOLODZIEJ, {"delta0": 1.0}),
                             (DEGIORGI, {"alpha": 2.0, "delta": 0.5})):
            got = certify_iteration_hypothesis(s, phi, form, **params)
            assert got == certify_oracle(s, phi, form, **params)

    @settings(max_examples=200, deadline=None)
    @given(level_stacks(zeros=False), EXPONENTS)
    def test_kolodziej_stack_matches_oracle_by_row(self, stack, delta0):
        s, phi = stack
        lonely = [i for i, row in enumerate(s) if np.all(row == row.max())]
        if lonely:
            with pytest.raises(DomainError, match=rf"\(row {lonely[0]}\)"):
                certify_iteration_hypothesis(s, phi, KOLODZIEJ, delta0=delta0)
            return
        c_min, feasible = certify_iteration_hypothesis(s, phi, KOLODZIEJ, delta0=delta0)
        for i in range(len(s)):
            assert (c_min[i], feasible[i]) == certify_oracle(s[i], phi[i], KOLODZIEJ,
                                                             delta0=delta0)

    @settings(max_examples=200, deadline=None)
    @given(level_stacks(zeros=True), EXPONENTS, EXPONENTS)
    def test_degiorgi_stack_matches_oracle_by_row(self, stack, alpha, delta):
        s, phi = stack
        c_min, feasible = certify_iteration_hypothesis(s, phi, DEGIORGI, alpha=alpha,
                                                       delta=delta)
        for i in range(len(s)):
            assert (c_min[i], feasible[i]) == certify_oracle(s[i], phi[i], DEGIORGI,
                                                             alpha=alpha, delta=delta)

    @settings(max_examples=150, deadline=None)
    @given(tie_stacks())
    def test_tie_stacks_match_oracle_by_row(self, stack):
        # the anchor windows hold every row max when pairs tie exactly or
        # nearly, whatever the sample count
        form, s, phi, params = stack
        c_min, feasible = certify_iteration_hypothesis(s, phi, form, **params)
        for i in range(len(s)):
            assert (c_min[i], feasible[i]) == certify_oracle(s[i], phi[i], form, **params)

    def test_seed7_families_match_oracle(self):
        # the 100 + 100 families one verify run with seed 7 draws, certified as
        # lemma_sweep does: one stack per parameter case
        rng = np.random.default_rng(7)
        case, s, phi, _, _ = synthetic_kolodziej_families(rng, 100)
        stacks = [(KOLODZIEJ, s[case == i], phi[case == i], {"delta0": delta0})
                  for i, delta0 in enumerate(KOLODZIEJ_CASES)]
        case, s, phi, _ = synthetic_degiorgi_families(rng, 100)
        stacks += [(DEGIORGI, s[case == i], phi[case == i], {"alpha": alpha, "delta": delta})
                   for i, (alpha, _, delta) in enumerate(DEGIORGI_CASES)]
        assert sum(len(stack[1]) for stack in stacks) == 200
        assert all(len(stack[1]) for stack in stacks)
        for form, s, phi, params in stacks:
            c_min, feasible = certify_iteration_hypothesis(s, phi, form, **params)
            assert feasible.all()
            for i in range(len(s)):
                assert (c_min[i], True) == certify_oracle(s[i], phi[i], form, **params)


class TestSyntheticFamilies:
    def test_batch_shapes_and_cases(self, rng):
        case, s, phi, s0, tight = synthetic_kolodziej_families(rng, 7)
        assert s.shape == phi.shape == (7, FAMILY_SAMPLES)
        assert case.shape == s0.shape == tight.shape == (7,)
        assert (s[:, -1] == s0).all() and set(case) <= set(range(len(KOLODZIEJ_CASES)))
        case, s, phi, s0 = synthetic_degiorgi_families(rng, 7)
        assert s.shape == phi.shape == (7, FAMILY_SAMPLES + 1)
        assert (s[:, 0] == s0).all() and set(case) <= set(range(len(DEGIORGI_CASES)))

    def test_kolodziej_lower_bound_holds(self, rng):
        gap, c_min = assert_kolodziej_families(*synthetic_kolodziej_families(rng, 100)[:4])
        assert (c_min > 0).all()
        assert (gap >= -1e-12).all()

    def test_degiorgi_vanishing_holds(self, rng):
        leftover, d, c_min = assert_degiorgi_families(*synthetic_degiorgi_families(rng, 100))
        assert (c_min > 0).all()
        assert (d > 0).all()
        assert (leftover <= 1e-12).all()

    def test_tight_kolodziej_gap_is_small(self, rng):
        # the equality family theta * delta0 = 1 certifies the exact
        # constant, so the bound matches phi(s0) almost exactly
        case, s, phi, s0, tight = synthetic_kolodziej_families(rng, 50)
        gap, _ = assert_kolodziej_families(case, s, phi, s0)
        tight &= np.take(KOLODZIEJ_CASES, case) == 1.0
        assert tight.any()
        assert (np.abs(gap[tight]) < 1e-10).all()

    def test_stacked_asserts_follow_family_order(self, rng):
        # one family certified alone gives the entry it has in a mixed stack
        kol = synthetic_kolodziej_families(rng, 12)[:4]
        dg = synthetic_degiorgi_families(rng, 12)
        gap, c_min = assert_kolodziej_families(*kol)
        leftover, d, c_dg = assert_degiorgi_families(*dg)
        for i in (0, 5, 11):
            one = slice(i, i + 1)
            assert assert_kolodziej_families(*(a[one] for a in kol)) == ([gap[i]], [c_min[i]])
            assert assert_degiorgi_families(*(a[one] for a in dg)) == (
                [leftover[i]], [d[i]], [c_dg[i]])

    def test_lemma_sweep_memory_does_not_grow_with_families(self):
        # numpy reports its buffers to tracemalloc; families are drawn and
        # certified a bounded batch at a time
        def peak(families):
            tracemalloc.start()
            try:
                sweep = lemma_sweep(np.random.default_rng(7), families)
                return tracemalloc.get_traced_memory()[1], sweep
            finally:
                tracemalloc.stop()

        small, ((_, gaps_small), (_, leftovers_small)) = peak(100)
        large, ((_, gaps_large), (_, leftovers_large)) = peak(2000)
        assert large <= 1.5 * small
        assert gaps_small == gaps_large == leftovers_small == leftovers_large == 0
