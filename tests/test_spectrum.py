import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mee import (
    DomainError,
    EnergyFrame,
    Spectrum,
    compute_means,
    harmonic_frame,
    harmonic_shift_solve,
    epsilon_shift_solve,
)
from conftest import bisect_shift, random_spectrum, record_level_sums

SQRT7 = math.sqrt(7.0)


class TestSpectrum:
    def test_basic_properties(self):
        s = Spectrum((1.0, 2.0, 3.0))
        assert s.n == 3
        assert s.e_min == 1.0 and s.e_max == 3.0
        assert not s.all_equal

    def test_degeneracies_default_to_ones(self):
        assert Spectrum((1.0, 2.0)).degeneracies == (1, 1)

    def test_expansion_is_order_preserving_and_idempotent(self):
        s = Spectrum((3.0, 1.0, 2.0), (2, 1, 3))
        expanded = s.expand()
        assert list(expanded) == [3.0, 3.0, 1.0, 2.0, 2.0, 2.0]
        again = Spectrum(tuple(expanded)).expand()
        assert list(again) == list(expanded)

    def test_grouped_counts_duplicates(self):
        s = Spectrum.grouped([0.0, 1.0, 1.0, 2.0])
        assert s.levels == (0.0, 1.0, 2.0)
        assert s.degeneracies == (1, 2, 1)

    def test_negated(self):
        s = Spectrum((1.0, 2.0, 3.0), (1, 2, 1)).negated()
        assert s.levels == (-1.0, -2.0, -3.0)
        assert s.degeneracies == (1, 2, 1)

    @pytest.mark.parametrize(
        "levels,degs",
        [
            ((), ()),
            ((1.0, math.inf), ()),
            ((1.0, 2.0), (1,)),
            ((1.0, 2.0), (1, 0)),
            ((1.0,), (-2,)),
            ((1.0, 2.0, 3.0), (1.5, 2, 3)),
            (((1.0, 2.0),), ()),
        ],
    )
    def test_invalid_inputs(self, levels, degs):
        with pytest.raises(DomainError):
            Spectrum(levels, degs)

    def test_json_round_trip(self):
        s = Spectrum((1.0, 2.5), (2, 3))
        assert Spectrum.from_json(s.to_json()) == s

    @settings(deadline=None, max_examples=100)
    @given(
        st.lists(
            st.tuples(
                st.floats(allow_nan=False, allow_infinity=False),
                st.integers(min_value=1, max_value=10**20),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @example([(0.0, 1), (-0.0, 2)])
    @example([(-0.0, 3), (0.0, 1), (5.0, 1)])
    def test_size_and_extrema_are_sum_min_max_of_the_fields(self, pairs):
        s = Spectrum(tuple(x for x, _ in pairs), tuple(d for _, d in pairs))
        for _ in range(2):  # the first access computes, the second reads the cache
            assert s.n == sum(s.degeneracies)
            for got, want in ((s.e_min, min(s.levels)), (s.e_max, max(s.levels))):
                assert got == want
                assert math.copysign(1.0, got) == math.copysign(1.0, want)

    @pytest.mark.parametrize(
        "make",
        [
            list,
            tuple,
            lambda v: np.array(v, dtype=np.float64),
            lambda v: np.array(v, dtype=np.float32),
            lambda v: np.array(v, dtype=np.int64),
        ],
        ids=["list", "tuple", "float64", "float32", "int64"],
    )
    def test_fields_hold_python_floats_and_ints(self, make):
        levels, degs = make([3, 1, 2]), make([2, 1, 3])
        s = Spectrum(levels, degs)
        assert s.levels == (3.0, 1.0, 2.0) and s.degeneracies == (2, 1, 3)
        assert all(type(x) is float for x in s.levels)
        assert all(type(d) is int for d in s.degeneracies)
        assert "np." not in repr(s)
        g = Spectrum.grouped(make([3, 1, 3]))
        assert all(type(x) is float for x in g.levels)
        assert all(type(d) is int for d in g.degeneracies)

    def test_python_float_levels_are_shared(self):
        lv = [0.1 * k for k in range(50)]
        s = Spectrum(lv)
        assert all(s.levels[i] is lv[i] for i in range(len(lv)))

    def test_grouped_matches_a_first_seen_dict(self):
        levels = [2.0, -0.0, 1.0, 0.0, 2.0, 1.5, -0.0, 1.0, 0.0, 7]
        ref: dict[float, int] = {}
        for x in levels:
            x = float(x)
            ref[x] = ref.get(x, 0) + 1
        for given_levels in (levels, tuple(levels), np.array(levels)):
            s = Spectrum.grouped(given_levels)
            assert s.levels == tuple(ref.keys())
            assert s.degeneracies == tuple(ref.values())
            signs = [math.copysign(1.0, x) for x in s.levels]
            assert signs == [math.copysign(1.0, x) for x in ref]


class TestMeans:
    def test_one_two_three(self):
        m = compute_means(Spectrum((1.0, 2.0, 3.0)))
        assert m.e_arith == pytest.approx(2.0, abs=1e-15)
        assert m.e_harm == pytest.approx(18.0 / 11.0, abs=1e-15)
        assert m.e_quad == pytest.approx(math.sqrt(108.0 / 49.0), abs=1e-14)
        assert m.n == 3

    def test_constant_spectrum_all_means_equal(self):
        m = compute_means(Spectrum((2.5,), (4,)))
        assert m.e_min == m.e_max == m.e_arith == m.e_harm == m.e_quad == 2.5

    def test_zero_level_blocks_harmonic_and_quadratic(self):
        # two spins with per-spin levels {0, 1}
        m = compute_means(Spectrum((0.0, 1.0, 2.0), (1, 2, 1)))
        assert m.e_arith == pytest.approx(1.0)
        assert m.e_harm is None
        assert m.e_quad is None

    def test_degeneracy_weighting_equals_expansion(self):
        # identical up to summation order (grouped sums O(#distinct) terms)
        grouped = Spectrum((1.0, 2.0, 3.0), (3, 1, 2))
        expanded = Spectrum(tuple(grouped.expand()))
        mg, me = compute_means(grouped), compute_means(expanded)
        assert mg.e_arith == pytest.approx(me.e_arith, rel=1e-14)
        assert mg.e_harm == pytest.approx(me.e_harm, rel=1e-14)
        assert mg.e_quad == pytest.approx(me.e_quad, rel=1e-14)

    @settings(deadline=None, max_examples=100)
    @given(
        st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=8),
        st.lists(st.integers(min_value=1, max_value=5), min_size=8, max_size=8),
    )
    def test_power_mean_ordering(self, levels, degs):
        m = compute_means(Spectrum(tuple(levels), tuple(degs[: len(levels)])))
        tol = 1e-12 * max(1.0, m.e_max)
        assert m.e_min - tol <= m.e_quad <= m.e_harm + tol
        assert m.e_harm <= m.e_arith + tol <= m.e_max + 2 * tol

    def test_power_mean_ordering_bulk(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            k = int(rng.integers(1, 9))
            levels = rng.uniform(0.05, 50.0, size=k)
            degs = rng.integers(1, 6, size=k)
            m = compute_means(Spectrum(tuple(levels), tuple(int(d) for d in degs)))
            tol = 1e-12 * m.e_max
            assert m.e_min <= m.e_quad + tol
            assert m.e_quad <= m.e_harm + tol
            assert m.e_harm <= m.e_arith + tol
            assert m.e_arith <= m.e_max + tol


class TestHarmonicShift:
    def test_two_level_already_harmonic(self):
        assert harmonic_shift_solve(Spectrum((1.0, 3.0)), 1.5) == pytest.approx(0.0, abs=1e-10)

    def test_two_level_closed_form(self):
        # (1+D)(3+D)/(2+D) = 1.8+D has the exact solution D = 3
        assert harmonic_shift_solve(Spectrum((1.0, 3.0)), 1.8) == pytest.approx(3.0, abs=1e-10)

    def test_example_spectrum_closed_form(self):
        shift = harmonic_shift_solve(Spectrum((1.0, 2.0, 3.0)), 1.5)
        assert shift == pytest.approx((-4.0 + SQRT7) / 3.0, abs=1e-12)

    def test_degeneracies_do_not_change_the_root(self):
        a = harmonic_shift_solve(Spectrum((1.0, 2.0, 3.0)), 1.5)
        b = harmonic_shift_solve(Spectrum((1.0, 2.0, 3.0), (7, 7, 7)), 1.5)
        assert a == pytest.approx(b, abs=1e-13)

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            k = int(rng.integers(2, 7))
            levels = np.sort(rng.uniform(-2.0, 5.0, size=k))
            levels[-1] += 0.5  # ensure a spread
            spec = Spectrum(tuple(levels))
            means = compute_means(spec)
            energy = means.e_min + 0.4 * (means.e_arith - means.e_min)
            got = harmonic_shift_solve(spec, energy)
            want = bisect_shift(levels, np.full(k, 1.0 / k), energy)
            assert got == pytest.approx(want, abs=1e-9)

    def test_residual_contract(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            levels = rng.uniform(0.1, 10.0, size=4)
            spec = Spectrum(tuple(levels))
            means = compute_means(spec)
            if means.e_arith - means.e_min < 1e-6:
                continue
            energy = means.e_min + 0.7 * (means.e_arith - means.e_min)
            shift = harmonic_shift_solve(spec, energy)
            assert shift >= -means.e_min
            frame = EnergyFrame(spec, energy, shift)
            assert abs(frame.e_prime_harm - frame.e_prime) <= 1e-12 * abs(frame.e_prime)

    def test_monotone_residual_by_finite_differences(self):
        # residual r(x) = E_H({E_k+x}) - (E+x) has strictly positive slope
        rng = np.random.default_rng(17)
        levels = np.array([0.3, 1.1, 2.9, 4.0])
        weights = np.full(4, 0.25)

        def resid(x):
            return 1.0 / np.sum(weights / (levels + x)) - (1.0 + x)

        xs = rng.uniform(-0.25, 5.0, size=100)
        h = 1e-6
        for x in xs:
            assert resid(x + h) - resid(x - h) > 0.0

    def test_domain_errors(self):
        spec = Spectrum((1.0, 3.0))
        with pytest.raises(DomainError):
            harmonic_shift_solve(spec, 0.5)  # below E_min
        with pytest.raises(DomainError):
            harmonic_shift_solve(spec, 2.0)  # at E_A
        with pytest.raises(DomainError):
            harmonic_shift_solve(spec, 2.5)  # above E_A

    def test_all_equal_cases(self):
        spec = Spectrum((2.0, 2.0))
        assert harmonic_shift_solve(spec, 2.0) == 0.0
        with pytest.raises(DomainError):
            harmonic_shift_solve(spec, 1.5)


class TestEpsilonShift:
    def test_two_level_quadratic_closed_form(self):
        # multiplier M = (1+1/2)(1+1/sqrt 2); M*E'_H(s) = E+s reduces to
        # (M-1)s^2 + (4M - 3.6)s + (3M - 3.2) = 0 for levels {1,3}, E=1.6
        m = 1.5 * (1.0 + 1.0 / math.sqrt(2.0))
        disc = (4 * m - 3.6) ** 2 - 4 * (m - 1) * (3 * m - 3.2)
        root = (-(4 * m - 3.6) + math.sqrt(disc)) / (2 * (m - 1))
        frame = epsilon_shift_solve(Spectrum((1.0, 3.0)), 1.6, 1.0)
        assert frame.shift == pytest.approx(root, abs=1e-12)
        assert frame.e_prime_min > 0

    def test_matches_bisection_oracle(self):
        spec = Spectrum((0.5, 1.5, 4.0), (2, 1, 1))
        frame = epsilon_shift_solve(spec, 1.2, 1.7)
        n = spec.n
        mult = (1 + 1 / n) * (1 + 1.7 / math.sqrt(n))
        want = bisect_shift(spec.expand(), np.full(n, 1.0 / n), 1.2, mult)
        assert frame.shift == pytest.approx(want, abs=1e-9)

    def test_example_regime_bracket(self):
        spec = Spectrum((1.0, 2.0, 3.0), (2731, 2731, 2731))
        frame = epsilon_shift_solve(spec, 1.5, 2.0)
        assert -0.5 < frame.shift < 0.0

    def test_limit_approaches_harmonic(self):
        spec = Spectrum((1.0, 2.0, 3.0))
        harmonic = harmonic_shift_solve(spec, 1.5)
        frame = epsilon_shift_solve(spec, 1.5, 1e-9, dim=10**12)
        assert frame.shift == pytest.approx(harmonic, abs=1e-8)

    def test_residual_contract(self):
        spec = Spectrum((1.0, 2.0, 3.0), (5, 5, 5))
        frame = epsilon_shift_solve(spec, 1.5, 2.0)
        n = frame.dim
        mult = (1 + 1 / n) * (1 + 2.0 / math.sqrt(n))
        assert abs(frame.e_prime - mult * frame.e_prime_harm) <= 1e-12 * frame.e_prime

    def test_dim_override_changes_only_the_multiplier(self):
        spec = Spectrum((1.0, 2.0, 3.0))
        small = epsilon_shift_solve(spec, 1.5, 2.0, dim=8193)
        big = epsilon_shift_solve(spec, 1.5, 2.0, dim=10**6)
        assert small.dim == 8193 and big.dim == 10**6
        assert small.shift != big.shift

    def test_domain_errors(self):
        spec = Spectrum((1.0, 3.0))
        with pytest.raises(DomainError):
            epsilon_shift_solve(spec, 1.5, -1.0)
        with pytest.raises(DomainError):
            epsilon_shift_solve(spec, 0.5, 1.0)

    @pytest.mark.parametrize(
        "energy, epsilon",
        [(math.nan, 2.0), (math.inf, 2.0), (-math.inf, 2.0), (1.5, math.nan), (1.5, math.inf)],
        ids=["energy-nan", "energy-inf", "energy-minus-inf", "epsilon-nan", "epsilon-inf"],
    )
    @pytest.mark.parametrize("levels", [(1.0, 2.0, 3.0), (2.0, 2.0)], ids=["spread", "all-equal"])
    def test_non_finite_inputs_fail_before_the_solve(self, levels, energy, epsilon):
        spec = Spectrum(levels)
        sums = record_level_sums(spec)
        with pytest.raises(DomainError):
            epsilon_shift_solve(spec, energy, epsilon)
        assert sums.asked == []

    def test_overflowing_multiplier_is_a_domain_error(self):
        # at n = 1 the multiplier 2 * (1 + 1e308) is inf; the all-equal
        # closed form would return a NaN shift
        with pytest.raises(DomainError, match="overflows"):
            epsilon_shift_solve(Spectrum((2.0, 2.0)), 2.5, 1e308, dim=1)


class TestSolverTolerance:
    @pytest.mark.parametrize(
        "tol", [math.nan, -1.0, -1e-300, math.inf], ids=["nan", "negative", "tiny-negative", "inf"]
    )
    @pytest.mark.parametrize("levels", [(1.0, 2.0, 3.0), (2.0, 2.0)], ids=["spread", "all-equal"])
    def test_bad_tol_fails_before_the_solve(self, levels, tol):
        spec = Spectrum(levels)
        sums = record_level_sums(spec)
        with pytest.raises(DomainError, match="tol must be finite and nonnegative"):
            harmonic_shift_solve(spec, 2.0, tol=tol)
        with pytest.raises(DomainError, match="tol must be finite and nonnegative"):
            epsilon_shift_solve(spec, 2.5, 2.0, tol=tol)
        assert sums.asked == []


class TestSharedLevelSums:
    @pytest.mark.parametrize("seed", range(5))
    def test_earlier_solves_do_not_change_a_result(self, seed):
        spec, energy = random_spectrum(seed, 60)
        harmonic = harmonic_shift_solve(spec, energy)
        epsilon = epsilon_shift_solve(spec, energy, 2.0).shift
        again = harmonic_shift_solve(spec, energy)

        def fresh():
            return Spectrum(spec.levels, spec.degeneracies)

        fresh_h, fresh_e = fresh(), fresh()
        assert harmonic.hex() == again.hex() == harmonic_shift_solve(fresh_h, energy).hex()
        assert epsilon.hex() == epsilon_shift_solve(fresh_e, energy, 2.0).shift.hex()
        # the pair shares its bracket points; the repeat sums nothing anew
        assert len(spec._level_sums) < len(fresh_h._level_sums) + len(fresh_e._level_sums)

    def test_memo_belongs_to_the_instance(self):
        spec, energy = random_spectrum(7, 60)
        twin = Spectrum(spec.levels, spec.degeneracies)
        assert spec == twin
        harmonic_shift_solve(spec, energy)
        assert spec._level_sums and not twin._level_sums


class TestEnergyFrame:
    def test_validation(self):
        spec = Spectrum((1.0, 3.0))
        with pytest.raises(DomainError):
            EnergyFrame(spec, 1.5, -1.0)  # lowest shifted level would be 0
        with pytest.raises(DomainError):
            EnergyFrame(spec, -3.0, 1.5)  # E' < 0

    def test_harmonic_frame_flag(self):
        frame = harmonic_frame(Spectrum((1.0, 2.0, 3.0)), 1.5)
        assert frame.is_harmonic()
        off = EnergyFrame(frame.base, frame.energy, frame.shift + 0.05)
        assert not off.is_harmonic()

    def test_shifted_spectrum(self):
        frame = EnergyFrame(Spectrum((1.0, 3.0), (2, 1)), 1.5, 0.5)
        assert frame.e_prime == 2.0
        assert frame.e_prime_min == 1.5 and frame.e_prime_max == 3.5
