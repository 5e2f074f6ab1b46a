import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mee import (
    DomainError,
    InfeasibleError,
    Spectrum,
    check_energy_window,
    compute_means,
    constants_for,
    ellipsoid_for,
    flip_for_high_energy,
    median_window,
    optimize_epsilon,
    tail_bound,
    tail_log10_bound,
    epsilon_shift_solve,
)
from mee.bounds import tail_log_bound
from mee.cli import DEFAULT_EPSILON_GRID
from conftest import random_spectrum, record_level_sums

EX1 = Spectrum((1.0, 2.0, 3.0), (2731, 2731, 2731))  # n = 8193


def mp_constants(levels, energy, epsilon, n):
    """High-precision (50-digit) shift solve and constant evaluation."""
    mp.mp.dps = 50
    levels = [mp.mpf(x) for x in levels]
    energy = mp.mpf(energy)
    mult = (1 + mp.mpf(1) / n) * (1 + mp.mpf(epsilon) / mp.sqrt(n))

    def harm(s):
        return len(levels) / mp.fsum(1 / (e + s) for e in levels)

    lo = -min(levels) + mp.mpf("1e-30")
    hi = lo + 2 * (max(levels) - min(levels)) + 1
    while mult * harm(hi) - (energy + hi) < 0:
        hi = lo + 2 * (hi - lo)
    for _ in range(220):
        mid = (lo + hi) / 2
        if mult * harm(mid) - (energy + mid) > 0:
            hi = mid
        else:
            lo = mid
    s = (lo + hi) / 2
    e_prime = energy + s
    e_min = min(levels) + s
    e_max = max(levels) + s
    c = 3 * e_min / (32 * e_prime)
    inv_q2 = mp.fsum(1 / (e + s) ** 2 for e in levels) / len(levels)
    denom = 1 - e_prime**2 * inv_q2 / mp.mpf(epsilon) ** 2
    a = 3040 * e_max**2 / (e_prime**2 * denom) if denom != 0 else mp.inf
    return s, c, a, denom, e_prime * mp.sqrt(inv_q2)


class TestEnergyWindow:
    def test_example_regime_is_inside_the_window(self):
        assert check_energy_window(EX1, 1.5).ok

    def test_arithmetic_mean_never_passes(self):
        for n in (10, 1000, 10**6):
            check = check_energy_window(Spectrum((1.0, 2.0, 3.0)), 2.0, dim=n)
            assert not check.ok and check.margin < 0.0

    def test_two_level_margin_value(self):
        check = check_energy_window(Spectrum((1.0, 3.0)), 1.9)
        assert check.margin == pytest.approx(2.0 - math.pi * 2.0 / math.sqrt(2.0) - 1.9)
        assert not check.ok

    def test_below_ground_level_fails(self):
        assert not check_energy_window(Spectrum((1.0, 3.0)), 0.5, dim=10**6).ok

    def test_needs_two_dimensions(self):
        with pytest.raises(DomainError):
            check_energy_window(Spectrum((1.0,)), 0.5)


class TestFlip:
    def test_negates_levels_and_energy(self):
        flipped, energy = flip_for_high_energy(Spectrum((1.0, 2.0, 3.0)), 2.6)
        assert flipped.levels == (-1.0, -2.0, -3.0)
        assert energy == -2.6

    def test_double_flip_is_identity(self):
        # the underlying map (negate levels and energy) is an involution; the
        # guarded operation itself maps the high window into the low one, so
        # a second application is out of domain by construction
        spec = Spectrum((1.0, 2.0, 3.0), (1, 2, 1))
        flipped, energy = flip_for_high_energy(spec, 2.4)
        assert flipped.negated() == spec and -energy == 2.4
        with pytest.raises(DomainError):
            flip_for_high_energy(flipped, energy)

    def test_flipped_window_margin_matches_direct_evaluation(self):
        spec = Spectrum((1.0, 2.0, 3.0), (100, 100, 100))
        flipped, energy = flip_for_high_energy(spec, 2.6)
        margin = check_energy_window(flipped, energy).margin
        means = compute_means(flipped)
        direct = means.e_arith - math.pi * (means.e_max - means.e_min) / math.sqrt(
            2 * (flipped.n - 1)
        ) - energy
        assert margin == pytest.approx(direct, abs=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            flip_for_high_energy(Spectrum((1.0, 2.0, 3.0)), 1.5)
        with pytest.raises(DomainError):
            flip_for_high_energy(Spectrum((1.0, 2.0, 3.0)), 3.5)


class TestConstants:
    def test_example_regime_values(self):
        k = constants_for(EX1, 1.5, 2.0)
        assert -0.5 < k.frame.shift < 0.0
        assert k.c >= 3.0 / 64.0
        assert 0.0 < k.a < 30830.0
        assert k.n == 8193

    def test_epsilon_one_is_infeasible_in_the_example_regime(self):
        with pytest.raises(InfeasibleError) as err:
            constants_for(EX1, 1.5, 1.0)
        assert err.value.details["min_feasible_epsilon"] > 1.0

    def test_against_high_precision_oracle(self):
        # feasible two-level configuration, checked at 50 digits
        spec = Spectrum((1.0, 3.0), (50, 50))
        k = constants_for(spec, 1.6, 5.0)
        s, c, a, _, _ = mp_constants([1.0, 3.0], 1.6, 5.0, 100)
        assert k.frame.shift == pytest.approx(float(s), abs=1e-12)
        assert k.c == pytest.approx(float(c), rel=1e-12)
        assert k.a == pytest.approx(float(a), rel=1e-11)

    def test_tiny_dimension_is_infeasible(self):
        # at n = 2 the multiplier forces E'_min so small that a < 0 for every
        # epsilon; the documented infeasibility error carries the threshold
        with pytest.raises(InfeasibleError) as err:
            constants_for(Spectrum((1.0, 3.0)), 1.6, 5.0)
        _, c, _, denom, min_eps = mp_constants([1.0, 3.0], 1.6, 5.0, 2)
        assert denom < 0
        assert err.value.details["min_feasible_epsilon"] == pytest.approx(float(min_eps), rel=1e-9)
        assert float(c) > 0  # c itself is well defined at the solved shift

    def test_feasibility_equivalence(self):
        # a > 0 exactly when epsilon exceeds E'/E'_Q at the solved shift
        rng = np.random.default_rng(23)
        for _ in range(40):
            levels = np.sort(rng.uniform(0.2, 4.0, size=4))
            if levels[-1] - levels[0] < 0.1:
                continue
            spec = Spectrum(tuple(levels), (5, 5, 5, 5))
            means = compute_means(spec)
            energy = means.e_min + 0.5 * (means.e_arith - means.e_min)
            eps = float(rng.uniform(0.3, 4.0))
            frame = epsilon_shift_solve(spec, energy, eps)
            threshold = frame.e_prime / frame.e_prime_quad
            if eps > threshold * (1 + 1e-9):
                k = constants_for(spec, energy, eps)
                assert k.a > 0.0
            elif eps < threshold * (1 - 1e-9):
                with pytest.raises(InfeasibleError):
                    constants_for(spec, energy, eps)


class TestTailBound:
    def test_gaussian_factor_is_one_at_quarter_n(self):
        k = constants_for(EX1, 1.5, 2.0)
        t0 = 1.0 / (4.0 * k.n)
        expected = math.log(k.a) + 1.5 * math.log(k.n) + 2.0 * k.epsilon * math.sqrt(k.n)
        assert tail_log_bound(k, t0) == pytest.approx(expected, rel=1e-15)

    def test_matches_direct_formula(self):
        k = constants_for(EX1, 1.5, 2.0)
        for t in (0.0, 0.1, 0.5, 1.0, 2.0):
            direct = (
                math.log(k.a)
                + 1.5 * math.log(k.n)
                - k.c * k.n * (t - 1.0 / (4 * k.n)) ** 2
                + 2 * k.epsilon * math.sqrt(k.n)
            )
            assert tail_log_bound(k, t) == pytest.approx(direct, rel=1e-14)
            got = tail_bound(k, t)
            assert got == math.inf if direct > 709 else got == pytest.approx(math.exp(direct))

    def test_monotone_nonincreasing_beyond_quarter_n(self):
        k = constants_for(EX1, 1.5, 2.0)
        ts = np.linspace(1.0 / (4 * k.n), 3.0, 80)
        logs = [tail_log_bound(k, t) for t in ts]
        assert all(b <= a + 1e-12 for a, b in zip(logs, logs[1:]))

    def test_log_space_survives_huge_dimension(self):
        k = constants_for(Spectrum((1.0, 2.0, 3.0)), 1.5, 2.0, dim=10**6)
        assert tail_bound(k, 0.01) == math.inf  # raw value overflows
        assert np.isfinite(tail_log10_bound(k, 0.01))
        # at t = 0.5 the Gaussian factor wins: the bound is genuinely tiny
        assert tail_log10_bound(k, 0.5) < -600

    def test_becomes_informative_at_large_n(self):
        # at t = 0.5 the bound first drops below 1 around n ~ 1.2e5 in the
        # example regime (at n = 8193 it is still astronomically large)
        k_small = constants_for(Spectrum((1.0, 2.0, 3.0)), 1.5, 2.0, dim=8193)
        assert tail_log10_bound(k_small, 0.5) > 100.0
        k_large = constants_for(Spectrum((1.0, 2.0, 3.0)), 1.5, 2.0, dim=125000)
        assert tail_bound(k_large, 0.5) < 1.0

    def test_rejects_negative_t(self):
        k = constants_for(EX1, 1.5, 2.0)
        with pytest.raises(DomainError):
            tail_bound(k, -0.1)


class TestOptimizeEpsilon:
    def test_excludes_infeasible_grid_points(self):
        k = optimize_epsilon(EX1, 1.5, 1.0, [1.0, 2.0, 3.0])
        assert k.epsilon in (2.0, 3.0)

    def test_single_feasible_point(self):
        k = optimize_epsilon(EX1, 1.5, 1.0, [2.5])
        assert k.epsilon == 2.5

    def test_matches_exhaustive_scan(self):
        grid = list(np.linspace(0.5, 8.0, 50))
        t = 1.2
        k = optimize_epsilon(EX1, 1.5, t, grid)
        best_eps, best_log = None, math.inf
        for eps in grid:
            try:
                cand = constants_for(EX1, 1.5, eps)
            except InfeasibleError:
                continue
            log_value = tail_log_bound(cand, t)
            if log_value < best_log:
                best_eps, best_log = eps, log_value
        assert k.epsilon == best_eps

    def test_all_infeasible_reports(self):
        with pytest.raises(InfeasibleError) as err:
            optimize_epsilon(EX1, 1.5, 1.0, [0.5, 1.0])
        assert set(err.value.details["failures"]) == {0.5, 1.0}

    def test_empty_grid(self):
        with pytest.raises(DomainError):
            optimize_epsilon(EX1, 1.5, 1.0, [])

    @pytest.mark.parametrize("energy", [math.nan, math.inf, -math.inf])
    def test_non_finite_energy_fails_before_the_grid(self, energy):
        spec = Spectrum(EX1.levels, EX1.degeneracies)
        sums = record_level_sums(spec)
        with pytest.raises(DomainError, match="energy must be finite"):
            optimize_epsilon(spec, energy, 1.0, [2.0, 3.0])
        assert sums.asked == []


def _fresh(spec: Spectrum) -> Spectrum:
    return Spectrum(spec.levels, spec.degeneracies)


class TestSharedLevelSums:
    """Every shift solve on one spectrum shares its level sums; no result
    may depend on the solves that ran before it."""

    # below 2, epsilon is infeasible on these spectra (n ~ 2000)
    @pytest.mark.parametrize(
        "grid",
        [list(DEFAULT_EPSILON_GRID), [8.0, 0.5, 2.0, 2.0, 4.0, 1.0], [3.0, 0.1, 6.0, 3.0, 2.5]],
        ids=["default", "unsorted-repeat", "infeasible-first"],
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_grid_matches_fresh_solves(self, seed, grid):
        spec, energy = random_spectrum(seed, 200)
        t = 0.5
        got = optimize_epsilon(spec, energy, t, grid)
        best, best_log = None, math.inf
        for eps in grid:
            try:
                cand = constants_for(_fresh(spec), energy, eps)
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    constants_for(spec, energy, eps)
                continue
            # the same bits again on the spectrum the grid ran on
            assert repr(constants_for(spec, energy, eps).to_json()) == repr(cand.to_json())
            log_value = tail_log_bound(cand, t)
            if log_value < best_log:
                best, best_log = cand, log_value
        assert repr(got.to_json()) == repr(best.to_json())

    def test_later_grid_solves_reuse_the_bracket_points(self):
        spec, energy = random_spectrum(11, 200)
        grid = list(DEFAULT_EPSILON_GRID)
        shared = record_level_sums(spec)
        optimize_epsilon(spec, energy, 2.0, grid)
        asked = []
        for eps in grid:
            fresh = _fresh(spec)
            log = record_level_sums(fresh)
            try:
                constants_for(fresh, energy, eps)
            except InfeasibleError:
                pass
            asked.append(log.asked)
        # the same residual sequence as solving each point on its own ...
        assert shared.asked == [x for points in asked for x in points]
        # ... and each distinct shift summed once, in first-seen order
        assert shared.evaluated == list(dict.fromkeys(shared.asked))
        # every solve opens on the same bracket start and first bracket end,
        # so the second and later solves sum neither of them again
        assert all(points[:2] == asked[0][:2] for points in asked)
        assert shared.evaluated.count(asked[0][0]) == 1
        assert len(shared.evaluated) <= len(shared.asked) - 2 * (len(grid) - 1)


class TestMedianWindow:
    def test_zero_lipschitz_gives_zero(self):
        k = constants_for(EX1, 1.5, 2.0)
        assert median_window(k, 0.0) == 0.0

    def test_direct_formula(self):
        k = constants_for(EX1, 1.5, 2.0)
        n = k.n
        order = k.epsilon / math.sqrt(n) + math.log(2 * k.a * n**1.5) / (2 * n)
        ratio = k.frame.e_prime / k.frame.e_prime_min
        expected = 3.0 / (8 * n) + 15.0 * math.sqrt(ratio * order)
        assert median_window(k, 1.0) == pytest.approx(expected, rel=1e-14)
        assert median_window(k, 2.5) == pytest.approx(2.5 * expected, rel=1e-14)

    def test_window_is_below_the_deviation_scale(self):
        # the reduced-state deviation constant dominates the bare window
        from mee import delta_deviation

        for n in (550, 8193, 100000):
            k = constants_for(Spectrum((1.0, 2.0, 3.0)), 1.5, 2.0, dim=n)
            assert median_window(k, 1.0) <= delta_deviation(k)
            assert delta_deviation(k) < 58.0 / n**0.25


class TestEllipsoid:
    def test_equal_levels_give_a_sphere(self):
        frame = epsilon_shift_solve(Spectrum((2.0, 2.0, 2.0, 2.0)), 2.5, 1.0)
        radii = ellipsoid_for(frame).radii
        assert np.allclose(radii, radii[0])
        expected = math.sqrt(frame.e_prime * (1 + 1 / (2 * frame.dim)) / frame.e_prime_min)
        assert radii[0] == pytest.approx(expected)

    def test_example_axis_ratio(self):
        spec = Spectrum((1.0, 2.0, 3.0))
        frame = epsilon_shift_solve(spec, 1.5, 2.0, dim=8193)
        # build the geometry frame over the bare 3-level spectrum
        from mee import EnergyFrame

        geom = EnergyFrame(spec, 1.5, frame.shift)
        radii = ellipsoid_for(geom).radii
        want = math.sqrt((3.0 + frame.shift) / (1.0 + frame.shift))
        assert radii[0] / radii[2] == pytest.approx(want, rel=1e-12)
        assert radii.max() == radii[0]  # largest axis on the smallest level

    def test_factor_tends_to_one(self):
        from mee import EnergyFrame

        spec = Spectrum((1.0, 2.0))
        lo = ellipsoid_for(EnergyFrame(spec, 1.4, 0.0, dim=10**9)).radii
        expected = np.sqrt(1.4 / np.array([1.0, 2.0]))
        assert np.allclose(lo, expected, rtol=1e-9)

    def test_expansion_respects_degeneracies(self):
        from mee import EnergyFrame

        frame = EnergyFrame(Spectrum((1.0, 2.0), (2, 1)), 1.4, 0.0)
        assert ellipsoid_for(frame).radii.size == 3


@settings(deadline=None, max_examples=60)
@given(
    st.floats(min_value=0.1, max_value=2.0),
    st.floats(min_value=0.05, max_value=0.45),
)
def test_flip_involution_property(width, offset):
    spec = Spectrum((1.0, 1.0 + width, 1.0 + 2 * width))
    energy = 1.0 + width * (1.0 + offset)  # strictly between E_A and E_max
    flipped, negated = flip_for_high_energy(spec, energy)
    assert flipped.negated() == spec
    assert -negated == energy
    # the flipped problem lands inside the low-energy regime of its spectrum
    means = compute_means(flipped)
    assert means.e_min < negated < means.e_arith
