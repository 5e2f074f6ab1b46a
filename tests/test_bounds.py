import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mee import (
    DomainError,
    InfeasibleError,
    NumericalError,
    EnergyFrame,
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
import mee.bounds
from mee.bounds import _infeasible_by_means, _log_floor, tail_log_bound
from mee.cli import DEFAULT_EPSILON_GRID
from mee.errors import MeeError
from mee.spectrum import _SHIFT_TOL, _multiplier
from conftest import random_spectrum

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

    def test_dimension_beyond_the_float_range(self):
        with pytest.raises(DomainError, match="float range"):
            check_energy_window(EX1, 1.5, dim=10**400)

    @pytest.mark.parametrize("dim,message", [
        (0, "^dimension must be positive$"), (-3, "^dimension must be positive$"),
        (1, "^the energy window test needs dimension n >= 2$"),
    ])
    def test_dimension_below_two(self, dim, message):
        with pytest.raises(DomainError, match=message):
            check_energy_window(EX1, 1.5, dim=dim)


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


    @pytest.mark.parametrize("as_float", [False, True], ids=["numpy-shift", "float-shift"])
    def test_overflowing_a_is_a_numerical_error(self, monkeypatch, recwarn, as_float):
        # E'_max^2 overflows: a NumPy shift gives inf with warnings, a Python
        # float's ** raises OverflowError, and both must end as one error
        spec = Spectrum((1e157, 2e157, 3e157), (2731, 2731, 2731))
        if as_float:
            solve = mee.bounds.epsilon_shift_solve

            def float_shift(*args, **kwargs):
                frame = solve(*args, **kwargs)
                return EnergyFrame(frame.base, frame.energy, float(frame.shift), frame.dim)

            monkeypatch.setattr(mee.bounds, "epsilon_shift_solve", float_shift)
        with pytest.raises(NumericalError, match="^constant a is beyond the float range"):
            constants_for(spec, 1.5e157, 2.0)
        with pytest.raises(NumericalError, match="^constant a is beyond the float range"):
            optimize_epsilon(spec, 1.5e157, 0.5, DEFAULT_EPSILON_GRID)
        assert not recwarn.list

    def test_large_finite_a_keeps_its_value(self):
        # at 1e150 the product 3040 E'_max^2 stays in range: a is the formula's value
        k = constants_for(Spectrum((1e150, 2e150, 3e150), (2731, 2731, 2731)), 1.5e150, 2.0)
        f = k.frame
        ratio = f.e_prime / f.e_prime_quad / 2.0
        assert k.a == 3040.0 * f.e_prime_max ** 2 / (f.e_prime ** 2 * (1.0 - ratio ** 2))
        assert math.isfinite(k.a)


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
        # the messages, order and folded repeats of solving every point
        s123 = Spectrum((1.0, 2.0, 3.0))
        for spec, grid, dim in [
            (EX1, [0.5, 1.0], None),
            (s123, [0.5, 1e-5, 3.0], None),
            (s123, [8, 0.5, 2, 2, 4, 1], None),
            (s123, [0.5, 8, 1, 8], None),  # 8 is solved first, reported second
            (EX1, list(DEFAULT_EPSILON_GRID), 2),  # every point passed over, then solved
        ]:
            with pytest.raises(InfeasibleError) as err:
                optimize_epsilon(spec, 1.5, 1.0, grid, dim=dim)
            kind, message, failures = TestGridPruning.exhaustive(spec, 1.5, 1.0, grid, dim)
            assert (kind, message) == (InfeasibleError, str(err.value))
            assert list(err.value.details["failures"].items()) == list(failures.items())
            assert err.value.details["grid"] == [float(eps) for eps in grid]

    def test_empty_grid(self):
        with pytest.raises(DomainError):
            optimize_epsilon(EX1, 1.5, 1.0, [])

    @pytest.mark.parametrize("energy", [math.nan, math.inf, -math.inf])
    def test_non_finite_energy_fails_before_the_grid(self, shift_roots, energy):
        with pytest.raises(DomainError, match="energy must be finite"):
            optimize_epsilon(EX1, energy, 1.0, [2.0, 3.0])
        assert shift_roots == []

    def test_dimension_beyond_the_float_range_fails_before_the_grid(self, shift_roots):
        with pytest.raises(DomainError, match="float range"):
            optimize_epsilon(EX1, 1.5, 1.0, [2.0, 3.0], dim=10**400)
        with pytest.raises(DomainError, match="float range"):
            epsilon_shift_solve(EX1, 1.5, 2.0, dim=10**400)
        assert shift_roots == []

    @pytest.mark.parametrize("dim", [0, -3])
    def test_nonpositive_dimension_fails_before_the_grid(self, shift_roots, dim):
        with pytest.raises(DomainError, match="^dimension must be positive$"):
            optimize_epsilon(EX1, 1.5, 1.0, [2.0, 3.0], dim=dim)
        assert shift_roots == []


class TestSharedLevelSums:
    """The pruned scan of a 200-level spectrum gives what solving every point
    gives (:meth:`TestGridPruning.check`).  The class name is historical: its
    test ids are kept."""

    # below 2, epsilon is infeasible on these spectra (n ~ 2000)
    @pytest.mark.parametrize(
        "grid",
        [list(DEFAULT_EPSILON_GRID), [8.0, 0.5, 2.0, 2.0, 4.0, 1.0], [3.0, 0.1, 6.0, 3.0, 2.5]],
        ids=["default", "unsorted-repeat", "infeasible-first"],
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_grid_matches_fresh_solves(self, seed, grid):
        spec, energy = random_spectrum(seed, 200)
        TestGridPruning().check(spec, energy, 0.5, grid)


class TestGridPruning:
    """The scan skips grid points that its lower bound shows cannot win;
    the result must be that of solving every point."""

    @staticmethod
    def exhaustive(spec, energy, t, grid, dim=None, unsolved=()):
        """The scan that solves every grid point, or the error it raises; a
        point whose solve raises one of ``unsolved`` is passed over."""
        best, best_log, failures = None, math.inf, {}
        try:
            for eps in grid:
                try:
                    cand = constants_for(spec, energy, float(eps), dim=dim)
                except (InfeasibleError, DomainError) as exc:
                    failures[float(eps)] = str(exc)
                    continue
                except unsolved:
                    continue
                log_value = tail_log_bound(cand, t)
                if log_value < best_log:
                    best, best_log = cand, log_value
        except Exception as exc:  # noqa: BLE001 - compared with the scan's error
            return type(exc), str(exc), getattr(exc, "residual", None)
        if best is None:
            return InfeasibleError, "no feasible epsilon in grid", failures
        return repr(best.to_json())

    @staticmethod
    def scanned(spec, energy, t, grid, dim=None):
        try:
            return repr(optimize_epsilon(spec, energy, t, grid, dim=dim).to_json())
        except InfeasibleError as exc:
            if "failures" not in exc.details:
                return type(exc), str(exc)
            return type(exc), str(exc), exc.details["failures"]
        except Exception as exc:  # noqa: BLE001
            return type(exc), str(exc), getattr(exc, "residual", None)

    def check(self, spec, energy, t, grid, dim=None):
        """The pruned scan gives what solving every point gives.  Near e_min a
        shift solve can miss its tolerance (NumericalError); the exhaustive
        scan then stops there, while the pruned scan may skip that point, by
        its floor or, when another point is feasible, by the power-mean
        certificate, so it may instead give the best of the points that
        converge."""
        got = self.scanned(spec, energy, t, grid, dim)
        want = self.exhaustive(spec, energy, t, grid, dim)
        if want[0] is NumericalError and got != want:
            want = self.exhaustive(spec, energy, t, grid, dim, NumericalError)
            assert isinstance(got, str)
        assert got == want

    @settings(deadline=None, max_examples=200)
    @given(
        levels=st.lists(st.integers(0, 40), min_size=2, max_size=6),
        degs=st.lists(st.integers(1, 10**6), min_size=6, max_size=6),
        fraction=st.one_of(st.floats(0.05, 1.2), st.sampled_from([1e-12, 1e-6, 1e-3])),
        t=st.floats(0.0, 3.0),
        dim=st.one_of(st.none(), st.sampled_from([2, 1000, 10**6, 10**9, 10**12, 10**15])),
        grid=st.one_of(
            st.just(list(DEFAULT_EPSILON_GRID)),
            st.lists(st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 8.0, 40.0]),
                     min_size=1, max_size=12),
        ),
    )
    @example(levels=[8, 8], degs=[3] * 6, fraction=0.5, t=2.0, dim=None,
             grid=list(DEFAULT_EPSILON_GRID))
    def test_pruned_scan_equals_the_exhaustive_scan(self, levels, degs, fraction, t, dim, grid):
        spec = Spectrum(tuple(float(x) / 4.0 for x in levels), tuple(degs[: len(levels)]))
        means = compute_means(spec)
        # fractions above 1 put E above E_A; an all-equal spectrum gets e_min + fraction
        energy = spec.e_min + fraction * (max(means.e_arith, spec.e_min + 1.0) - spec.e_min)
        self.check(spec, energy, t, grid, dim)

    @pytest.mark.parametrize("dim", [None, 10**15])
    @pytest.mark.parametrize("grid", [
        [0.5 * k for k in range(1, 51)], [0.5 * k for k in range(50, 0, -1)],
        [3.0, 1.0, 3.0, 8.0, 2.0, 2.0, 0.5],
    ], ids=["fine", "descending", "unsorted-repeat"])
    def test_small_spectra_match_the_exhaustive_scan(self, grid, dim):
        spec = Spectrum((1.0, 2.0, 3.0))
        for t in (0.0, 0.1, 1.2, 3.0):
            self.check(spec, 1.4, t, grid, dim)

    def test_a_skipped_point_is_not_solved(self):
        # E' ~ 7e-5 at E ~ 2: rounding in E + x keeps some solves from their
        # tolerance, and one of them is a point the scan skips
        spec, energy = Spectrum((2.0, 8.25), (255049, 239800)), 2.0000343858412313
        args = (energy, 2.853244762836068, DEFAULT_EPSILON_GRID, 10**6)
        assert self.exhaustive(spec, *args)[0] is NumericalError
        assert self.scanned(spec, *args) == self.exhaustive(spec, *args, NumericalError)

    def test_a_point_passed_over_is_not_solved(self):
        # the certificate passes over 0.5, whose solve misses its tolerance
        spec, energy = Spectrum((2.0, 8.25), (255049, 239800)), 2.00004265795188
        with pytest.raises(NumericalError):
            constants_for(spec, energy, 0.5)
        args = (energy, 2.0, DEFAULT_EPSILON_GRID, None)
        assert self.exhaustive(spec, *args)[0] is NumericalError
        assert self.scanned(spec, *args) == self.exhaustive(spec, *args, NumericalError)
        self.check(spec, *args)

    def test_the_first_point_that_does_not_converge_is_raised(self):
        # 0.5 (passed over) and 1.5 (solved) both miss their tolerance, with
        # different residuals; solving every point stops at 0.5
        spec, energy = Spectrum((2.0, 8.25), (255049, 239800)), 2.0000346736850454
        residuals = []
        for eps in (0.5, 1.5):
            with pytest.raises(NumericalError) as err:
                constants_for(spec, energy, eps)
            residuals.append(err.value.residual)
        with pytest.raises(NumericalError) as err:
            optimize_epsilon(spec, energy, 2.0, DEFAULT_EPSILON_GRID)
        assert err.value.residual == residuals[0] != residuals[1]

    @settings(deadline=None, max_examples=300)
    @given(
        levels=st.lists(st.integers(0, 40), min_size=2, max_size=5),
        degs=st.lists(st.integers(1, 3), min_size=5, max_size=5),
        fraction=st.floats(0.01, 2.0),
        t=st.floats(0.0, 3.0),
        dim=st.sampled_from([None, 2, 3, 10, 1000, 10**6]),
        epsilons=st.lists(st.floats(0.1, 20.0), min_size=2, max_size=2),
    )
    def test_floor_is_below_the_bound(self, levels, degs, fraction, t, dim, epsilons):
        # fractions above 1 put E above e_max, where no floor is known
        spec = Spectrum(tuple(float(x) / 4.0 for x in levels), tuple(degs[: len(levels)]))
        energy = spec.e_min + fraction * max(spec.e_max - spec.e_min, 1.0)
        try:
            ref, cand = (constants_for(spec, energy, eps, dim=dim) for eps in epsilons)
        except MeeError:
            return
        floor = _log_floor(ref, t, cand.epsilon)
        if cand.epsilon < ref.epsilon or energy > spec.e_max:
            assert floor == -math.inf
        assert floor <= tail_log_bound(cand, t)

    @pytest.mark.parametrize("size", [2, 5, 40])
    @pytest.mark.parametrize("dim", [None, 10**6, 10**12])
    def test_computed_shifts_lie_within_delta_of_the_root(self, size, dim):
        # the distance _log_floor's margin allows for, without its factor 2
        levels = tuple(np.random.default_rng(size).uniform(0.0, 10.0, size).tolist())
        spec = Spectrum(levels)
        energy = spec.e_min + 0.6 * (compute_means(spec).e_arith - spec.e_min)
        for eps in (1.0, 2.0, 8.0):
            frame = epsilon_shift_solve(spec, energy, eps, dim=dim)
            n = frame.dim
            root = mp_constants(levels, energy, eps, n)[0]
            m = (1.0 + 1.0 / n) * (1.0 + eps / math.sqrt(n))
            assert abs(frame.shift - root) <= _SHIFT_TOL * frame.e_prime / (m - 1.0)

    def test_no_point_is_skipped_where_the_margin_exceeds_the_step(self, epsilon_solves):
        # at n = 1e15 the solver's tolerance moves c n T^2 by more than a grid
        # step moves 2 eps sqrt(n)
        spec, energy = random_spectrum(11, 2000)
        got = optimize_epsilon(spec, energy, 2.0, DEFAULT_EPSILON_GRID, dim=10**15)
        # 0.5 and 1.0 lie below the multiplier, so only the certificate passes over them
        above = [eps for eps in DEFAULT_EPSILON_GRID if eps > _multiplier(eps, 10**15)]
        assert len(epsilon_solves) == len(above) == 14
        want = self.exhaustive(spec, energy, 2.0, DEFAULT_EPSILON_GRID, 10**15)
        assert repr(got.to_json()) == want

    def test_solved_points_are_the_kept_points_in_grid_order(self, monkeypatch):
        spec, energy = random_spectrum(11, 200)
        # 0.5 and 1.0 are passed over; at least 3.0, 2.0 and 1.5 are solved
        grid = [3.0, 0.5, 2.0, 1.0, 1.5, 8.0]
        solved = []

        def logging_constants_for(spectrum, energy, epsilon, dim=None):
            solved.append(epsilon)
            return constants_for(spectrum, energy, epsilon, dim=dim)

        monkeypatch.setattr(mee.bounds, "constants_for", logging_constants_for)
        got = optimize_epsilon(spec, energy, 2.0, grid)
        kept = [eps for eps in grid if not _infeasible_by_means(eps, spec.n)]
        assert 3 <= len(solved) < len(grid) and solved == kept[: len(solved)]
        assert repr(got.to_json()) == self.exhaustive(spec, energy, 2.0, grid)

    def test_default_grid_solves_few_points(self, epsilon_solves):
        spec, energy = random_spectrum(11, 2000)
        got = optimize_epsilon(spec, energy, 2.0, DEFAULT_EPSILON_GRID)
        assert len(epsilon_solves) <= 5
        want = self.exhaustive(spec, energy, 2.0, DEFAULT_EPSILON_GRID)
        assert repr(got.to_json()) == want


class TestPowerMeanCertificate:
    """The scan passes over every eps <= m (1 - 1e-9) without solving it;
    such a point must fail to solve on every spectrum, energy and dimension."""

    @staticmethod
    def largest_passed_over(n):
        """The largest eps the scan passes over at n, by bisection, or None
        where it passes over every eps (n = 2)."""
        lo, hi = 0.0, 1.0
        while _infeasible_by_means(hi, n):
            lo, hi = hi, 2.0 * hi
            if hi > 1e300:
                return None
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if _infeasible_by_means(mid, n) else (lo, mid)
        return lo

    @settings(deadline=None, max_examples=300)
    @given(
        levels=st.lists(st.integers(0, 40), min_size=2, max_size=6),
        degs=st.lists(st.integers(1, 10**6), min_size=6, max_size=6),
        fraction=st.one_of(st.floats(0.05, 1.2), st.sampled_from([1e-12, 1e-6, 1e-3])),
        dim=st.one_of(st.none(), st.integers(2, 10**15)),
        eps=st.one_of(st.floats(-10.0, 0.0), st.floats(0.0, 2.0), st.floats(2.0, 100.0)),
        inside=st.one_of(st.none(), st.floats(0.0, 1e-6)),
    )
    @example(levels=[8, 8], degs=[3] * 6, fraction=0.5, dim=10**15, eps=1.0, inside=0.0)
    @example(levels=[8, 8], degs=[3] * 6, fraction=0.5, dim=None, eps=1.0, inside=0.0)
    @example(levels=[0, 4, 40], degs=[1] * 6, fraction=1e-12, dim=None, eps=0.0, inside=None)
    def test_a_passed_over_point_never_solves(self, levels, degs, fraction, dim, eps, inside):
        spec = Spectrum(tuple(float(x) / 4.0 for x in levels), tuple(degs[: len(levels)]))
        means = compute_means(spec)
        energy = spec.e_min + fraction * (max(means.e_arith, spec.e_min + 1.0) - spec.e_min)
        n = spec.n if dim is None else dim
        edge = self.largest_passed_over(n)
        if inside is not None and edge is not None:
            eps = edge * (1.0 - inside)  # at or just below the edge, the tightest case
        assume(_infeasible_by_means(eps, n))
        with pytest.raises((InfeasibleError, DomainError, NumericalError)):
            constants_for(spec, energy, eps, dim=dim)

    def test_default_grid_never_solves_half_or_one(self, monkeypatch):
        spec, energy = random_spectrum(3, 10_000)
        solved = []

        def logging_constants_for(spectrum, energy, epsilon, dim=None):
            solved.append(epsilon)
            return constants_for(spectrum, energy, epsilon, dim=dim)

        monkeypatch.setattr(mee.bounds, "constants_for", logging_constants_for)
        got = optimize_epsilon(spec, energy, 2.0, DEFAULT_EPSILON_GRID)
        assert solved and not {0.5, 1.0} & set(solved)
        want = TestGridPruning.exhaustive(spec, energy, 2.0, DEFAULT_EPSILON_GRID)
        assert repr(got.to_json()) == want


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


class TestExpOrInf:
    def test_finite_up_to_the_float_range(self):
        # math.exp overflows above ln(max float) = 709.7827..., not at 709
        for log_value in (709.5, 709.78):
            assert mee.bounds._exp_or_inf(log_value) == math.exp(log_value) < math.inf
        assert mee.bounds._exp_or_inf(709.79) == math.inf
        assert mee.bounds._exp_or_inf(math.inf) == math.inf
        assert mee.bounds._exp_or_inf(-math.inf) == 0.0
        assert math.isnan(mee.bounds._exp_or_inf(math.nan))

    def test_tail_bound_is_finite_below_the_float_range(self):
        k = constants_for(EX1, 1.5, 2.0)
        t = 0.5
        # the a whose log bound at t is 709.5
        k = dataclasses.replace(k, a=math.exp(709.5 - (tail_log_bound(k, t) - math.log(k.a))))
        assert 709.0 < tail_log_bound(k, t) < 709.6
        assert tail_bound(k, t) == math.exp(tail_log_bound(k, t)) < math.inf


@pytest.mark.parametrize("radii", [[], [1.0, 0.0], [2.0, -1.0], [[1.0, 2.0]]],
                         ids=["empty", "zero", "negative", "matrix"])
def test_ellipsoid_rejects_bad_radii(radii):
    with pytest.raises(DomainError, match="ellipsoid radii must be a nonempty positive vector"):
        mee.bounds.Ellipsoid(radii)
