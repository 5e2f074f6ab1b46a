import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mee import (
    DomainError,
    EnergyFrame,
    InfeasibleError,
    MeeError,
    Spectrum,
    compute_means,
    constants_for,
    harmonic_frame,
    harmonic_shift_solve,
    epsilon_shift_solve,
)
from mee.spectrum import _multiplier
from conftest import bisect_shift

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
        z = Spectrum((0.0, -0.0, 1.5, -2.0)).negated()
        assert [math.copysign(1.0, x) for x in z.levels] == [-1.0, 1.0, -1.0, 1.0]
        assert all(type(x) is float for x in z.levels)
        assert z.levels == (-0.0, 0.0, -1.5, 2.0)

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
            ((1.0, 2.0), (math.nan, 1)),
            ((1.0, 2.0), (math.inf, 1)),
            ((1.0, 2.0), (None, 1)),
            ((1.0, 2.0), ("2", 1)),
            ((1.0, 2.0), (10**401, 1)),
            ((1.0, 2.0), (10**308, 10**308)),
        ],
    )
    def test_invalid_inputs(self, levels, degs):
        with pytest.raises(DomainError):
            Spectrum(levels, degs)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, None, 1.5, "2"])
    def test_unreadable_degeneracies_are_not_whole_numbers(self, bad):
        with pytest.raises(DomainError, match="degeneracies must be whole numbers"):
            Spectrum((1.0, 2.0), (bad, 1))

    @pytest.mark.parametrize("make", [list, np.array, lambda d: tuple(map(np.int64, d))],
                             ids=["ints", "int64-array", "int64-scalars"])
    def test_integer_degeneracies_are_python_ints(self, make):
        s = Spectrum((1.0, 2.0, 3.0), make([4, 1, 2**40]))
        assert s.degeneracies == (4, 1, 2**40)
        assert all(type(d) is int for d in s.degeneracies) and type(s.n) is int
        assert s.n == 2**40 + 5
        dg = np.array([4.0, 1.0, 2.0**40])
        assert s._weights_arr.tobytes() == (dg / dg.sum()).tobytes()

    @pytest.mark.parametrize("degs,want", [
        # past 2**62 / len an int64 sum could wrap: read as Python ints
        ((2**62, 1, 1), (2**62, 1, 1)),
        ((2**61, 2**61, 2**61), (2**61, 2**61, 2**61)),
        (np.array([2**62, 2**62, 2**62]), (2**62, 2**62, 2**62)),
        ((True, 2, 3), (1, 2, 3)),
        ((True, True, True), (1, 1, 1)),
        ((2.0, 1, 1), (2, 1, 1)),
        ((math.nan, 1, 1), "whole numbers"),
        ((None, 1, 1), "whole numbers"),
        ((1, 2), "match levels in length"),
        (np.array([0, 1, 2]), "positive integers"),
        ((-2**63, 2, 3), "positive integers"),
    ])
    def test_degeneracies_keep_their_results_and_errors(self, degs, want):
        if isinstance(want, str):
            with pytest.raises(DomainError, match=f"degeneracies must .*{want}"):
                Spectrum((1.0, 2.0, 3.0), degs)
            return
        s = Spectrum((1.0, 2.0, 3.0), degs)
        assert s.degeneracies == want and all(type(d) is int for d in s.degeneracies)
        assert s.n == sum(want) and type(s.n) is int
        dg = np.asarray(want, dtype=float)
        assert s._weights_arr.tobytes() == (dg / dg.sum()).tobytes()

    def test_json_round_trip(self):
        s = Spectrum((1.0, 2.5), (2, 3))
        assert Spectrum.from_json(s.to_json()) == s

    @settings(deadline=None, max_examples=150)
    @given(
        st.lists(
            st.tuples(
                st.one_of(
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([0.0, -0.0]),
                    st.integers(-(2**60), 2**60),
                ),
                st.integers(min_value=1, max_value=10**20),
            ),
            min_size=1,
            max_size=12,
        ),
        st.booleans(),
        st.sampled_from([list, tuple, np.array]),
    )
    @example([(0.0, 1), (-0.0, 2)], True, tuple)
    @example([(-0.0, 3), (0.0, 1), (5.0, 1)], True, tuple)
    @example([(-0.0, 3), (0.0, 1), (-0.0, 1)], False, np.array)
    @example([(2**53 + 1, 2**63 + 1), (1.0, 1)], True, tuple)
    def test_size_and_extrema_are_sum_min_max_of_the_fields(self, pairs, with_degs, make):
        """Bit for bit and sign for sign: n, the extrema and the arrays are
        what the old tuple-based definitions gave: the degeneracies' sum,
        Python's min and max of the levels, the fields as float arrays, and
        the degeneracies over their float sum."""
        levels = make([x for x, _ in pairs])
        degs = [d for _, d in pairs] if with_degs else ()
        if with_degs and not (make is np.array and max(degs) >= 2**63):
            degs = make(degs)  # an array would hold a larger int as a float
        s = Spectrum(levels, degs)
        assert s.n == sum(s.degeneracies) and type(s.n) is int
        for got, want in ((s.e_min, min(s.levels)), (s.e_max, max(s.levels))):
            assert type(got) is float and got == want
            assert math.copysign(1.0, got) == math.copysign(1.0, want)
        lv = np.asarray(s.levels, dtype=float)
        dg = np.asarray(s.degeneracies, dtype=float)
        assert s._levels_arr.dtype == np.float64 and s._weights_arr.dtype == np.float64
        assert s._levels_arr.tobytes() == lv.tobytes()
        assert s._weights_arr.tobytes() == (dg / dg.sum()).tobytes()
        assert not s._levels_arr.flags.writeable and not s._weights_arr.flags.writeable

    def test_arrays_are_not_the_callers(self):
        given = np.array([3.0, 1.0, 2.0])
        s = Spectrum(given)
        given[0] = 9.0
        assert s.levels == (3.0, 1.0, 2.0) and s._levels_arr[0] == 3.0

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

    @settings(deadline=None, max_examples=200)
    @given(
        st.one_of(
            # repeats, signed zeros among them
            st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.5, 7.0, 1e300, 5e-324]),
                     min_size=1, max_size=40),
            # all distinct: the spectrum is the input, each of degeneracy one
            st.lists(st.floats(allow_nan=False, allow_infinity=False),
                     min_size=1, max_size=40, unique=True),
            st.lists(st.floats(allow_nan=False, allow_infinity=False),
                     min_size=1, max_size=40),
        ),
        st.sampled_from([list, tuple, np.array]),
    )
    @example([2.0, -0.0, 1.0, 0.0, 2.0, 1.5, -0.0, 1.0, 0.0, 7], list)
    @example([0.0, -0.0], np.array)
    @example([-0.0, 0.0, 3.0], tuple)
    def test_grouped_matches_a_first_seen_dict(self, levels, make):
        ref: dict[float, int] = {}
        for x in levels:
            x = float(x)
            ref[x] = ref.get(x, 0) + 1
        s = Spectrum.grouped(make(levels))
        assert s.levels == tuple(ref.keys())
        assert s.degeneracies == tuple(ref.values())
        assert all(type(x) is float for x in s.levels)
        assert all(type(d) is int for d in s.degeneracies)
        signs = [math.copysign(1.0, x) for x in s.levels]
        assert signs == [math.copysign(1.0, x) for x in ref]
        assert s._levels_arr.tobytes() == np.asarray(s.levels, dtype=float).tobytes()

    @pytest.mark.parametrize("levels", [[], [math.nan, 1.0], [math.inf, math.inf], [[1.0, 2.0]]])
    def test_grouped_rejects_what_the_constructor_rejects(self, levels):
        with pytest.raises(DomainError):
            Spectrum.grouped(levels)


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
    def test_non_finite_inputs_fail_before_the_solve(self, shift_roots, levels, energy,
                                                      epsilon):
        with pytest.raises(DomainError):
            epsilon_shift_solve(Spectrum(levels), energy, epsilon)
        assert shift_roots == []

    def test_overflowing_multiplier_is_a_domain_error(self):
        # at n = 1 the multiplier 2 * (1 + 1e308) is inf; the all-equal
        # closed form would return a NaN shift
        with pytest.raises(DomainError, match="overflows"):
            epsilon_shift_solve(Spectrum((2.0, 2.0)), 2.5, 1e308, dim=1)

    def test_all_equal_shift_keeps_the_gap_to_the_last_bit(self):
        # E - e and m - 1 are exact, so (E - e)/(m - 1) is E'_min rounded
        # once; the shift may add at most the rounding of s + e, one ulp of e
        energy = 3.000000000001
        frame = epsilon_shift_solve(Spectrum((3.0, 3.0)), energy, 2.0, dim=10**6)
        exact = (energy - 3.0) / (_multiplier(2.0, 10**6) - 1.0)
        assert abs(frame.e_prime_min - exact) <= math.ulp(3.0)

    def test_all_equal_shift_two_ulp_above_the_level(self):
        # (E - e)/(m - 1) is 0.76 ulp of e, so E'_min rounds to one ulp, not 0
        energy = math.nextafter(math.nextafter(3.0, 4.0), 4.0)
        frame = epsilon_shift_solve(Spectrum((3.0, 3.0)), energy, 2.0)
        assert frame.e_prime_min == math.ulp(3.0)


class TestSolverTolerance:
    @pytest.mark.parametrize(
        "tol", [math.nan, -1.0, -1e-300, math.inf], ids=["nan", "negative", "tiny-negative", "inf"]
    )
    @pytest.mark.parametrize("levels", [(1.0, 2.0, 3.0), (2.0, 2.0)], ids=["spread", "all-equal"])
    def test_bad_tol_fails_before_the_solve(self, shift_roots, levels, tol):
        spec = Spectrum(levels)
        with pytest.raises(DomainError, match="tol must be finite and nonnegative"):
            harmonic_shift_solve(spec, 2.0, tol=tol)
        with pytest.raises(DomainError, match="tol must be finite and nonnegative"):
            epsilon_shift_solve(spec, 2.5, 2.0, tol=tol)
        assert shift_roots == []


class TestScaleCovariance:
    """Scaling every level and E by 2^k scales each residual by 2^k and
    leaves its slope as it is, and the bracket and the stopping test scale
    with the levels, so wherever the scaling is exact both solves move by
    exactly 2^k."""

    @staticmethod
    def outcome(call):
        try:
            return call()
        except MeeError as exc:
            return type(exc)

    @settings(deadline=None, max_examples=300)
    @given(
        levels=st.lists(st.one_of(st.integers(0, 40).map(lambda v: v / 4.0),
                                  st.floats(-20.0, 20.0)), min_size=2, max_size=6),
        degs=st.lists(st.integers(1, 10**6), min_size=6, max_size=6),
        offset=st.sampled_from([0.0, -5.0, 3.0]),
        fraction=st.floats(0.0, 1.0, exclude_max=True),
        epsilon=st.sampled_from([1.5, 2.0, 3.0, 8.0]),
        dim=st.one_of(st.none(), st.sampled_from([2, 1000, 10**6, 10**12])),
        k=st.integers(-400, 60),
    )
    def test_powers_of_two_scale_the_shifts_exactly(self, levels, degs, offset, fraction,
                                                    epsilon, dim, k):
        levels = [v + offset for v in levels]
        scale = 2.0 ** k
        spec = Spectrum(tuple(levels), tuple(degs[: len(levels)]))
        big = Spectrum(tuple(v * scale for v in levels), spec.degeneracies)
        e_arith = float(np.average(levels, weights=spec.degeneracies))
        energy = spec.e_min + fraction * (e_arith - spec.e_min)
        # the scaled problem is the same one: no input leaves the normal range,
        # and on either side no 1/E'_k^2 overflows, which needs the bracket's
        # start, 1e-14 of the span above the pole, to stay above 2^-506
        span = spec.e_max - spec.e_min
        assume(all(abs(v) * scale >= 2.0 ** -960
                   for v in (*levels, energy, e_arith - spec.e_min) if v != 0.0))
        assume(span == 0.0 or span * min(scale, 1.0) >= 2.0 ** -460)

        def solves(sp, e):
            return (self.outcome(lambda: harmonic_shift_solve(sp, e)),
                    self.outcome(lambda: epsilon_shift_solve(sp, e, epsilon, dim=dim).shift),
                    self.outcome(lambda: constants_for(sp, e, epsilon, dim=dim)))

        harmonic, shift, consts = solves(spec, energy)
        big_harmonic, big_shift, big_consts = solves(big, energy * scale)
        for small, large in ((harmonic, big_harmonic), (shift, big_shift)):
            if isinstance(small, float):
                assert (small * scale).hex() == large.hex()
            else:
                assert small is large
        if isinstance(consts, type):
            assert consts is big_consts
        else:
            assert consts.c.hex() == big_consts.c.hex()
            # E'_Q's ** -0.5 may round the other way, so a only to a few ulp
            assert abs(consts.a - big_consts.a) <= 4 * math.ulp(consts.a)


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


class TestPythonFloatShifts:
    """Both solvers return a Python float, whichever step ends the solve: a
    NumPy float's ** gives inf with a warning where a Python float's raises
    OverflowError, which the constants and the moments report catch."""

    CASES = [
        ((1.0, 2.0, 3.0), 1.5),
        ((0.5, 1.5, 4.0), 1.0),
        ((1e155, 2e155, 3e155), 1.5e155),
        ((1e160, 2e160, 3e160), 1.5e160),
        ((1e170, 2e170, 3e170), 1.5e170),
    ]

    IDS = ["s123", "uneven", "1e155", "1e160", "1e170"]

    @pytest.mark.parametrize("levels, energy", CASES, ids=IDS)
    def test_harmonic_shift(self, levels, energy):
        assert type(harmonic_shift_solve(Spectrum(levels), energy)) is float

    @pytest.mark.parametrize("levels, energy", CASES, ids=IDS)
    def test_epsilon_shift(self, levels, energy):
        assert type(epsilon_shift_solve(Spectrum(levels), energy, 2.0, dim=10**6).shift) is float


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Spectrum((1.0, 2.0), ((1, 2), 3)), DomainError, "whole numbers"),
        (lambda: EnergyFrame(Spectrum((1.0, 3.0)), 1.5, 0.0, dim=-1), DomainError,
         "^frame dimension must be positive$"),
        # E - e_min is one ulp: at epsilon 8 the linear solve's shift rounds to -e_min
        (lambda: epsilon_shift_solve(Spectrum((3.0, 3.0)), math.nextafter(3.0, 4.0), 8.0),
         InfeasibleError, "no positive-level shift solves the all-equal frame"),
    ],
    ids=["ragged-degeneracies", "frame-dimension", "all-equal-frame"],
)
def test_error_paths(call, error, message):
    with pytest.raises(error, match=message):
        call()
