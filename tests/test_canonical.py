import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize

import mee.canonical
from mee import (
    BipartiteSpectrum,
    DensityMatrix,
    DomainError,
    NumericalError,
    Spectrum,
    compute_means,
    constants_for,
    delta_deviation,
    detmax_state,
    hall_radial_density,
    qubit_canonical,
    qubit_exact_tail,
    qubit_exponential_bound,
    reduced_dm_tail,
    rho_c_bipartite,
    rho_c_flat_env,
    tail_bound,
    epsilon_shift_solve,
)
from mee.bounds import tail_log_bound

SQRT7 = math.sqrt(7.0)
RHO_LIMIT = np.array([(5.0 + SQRT7) / 12.0, 2.0 * (4.0 - SQRT7) / 12.0, (-1.0 + SQRT7) / 12.0])


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError):
            DensityMatrix(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_diagonal_round_trip(self):
        dm = DensityMatrix.from_diagonal([0.25, 0.75])
        assert dm.dim == 2
        assert dm.trace == pytest.approx(1.0)
        assert dm.is_diagonal
        assert dm.to_json()["diagonal"] == [0.25, 0.75]

    def test_normalized_view(self):
        dm = DensityMatrix.from_diagonal([0.5, 1.5])
        assert dm.normalized().trace == pytest.approx(1.0)
        assert dm.trace == pytest.approx(2.0)  # original untouched

    def test_hs_distance(self):
        a = DensityMatrix.from_diagonal([1.0, 0.0])
        b = DensityMatrix.from_diagonal([0.0, 1.0])
        assert a.hs_distance(b) == pytest.approx(math.sqrt(2.0))

    def test_general_hermitian_json(self):
        m = np.array([[0.5, 0.1 + 0.2j], [0.1 - 0.2j, 0.5]])
        blob = DensityMatrix(m).to_json()
        assert "re" in blob and "im" in blob


class TestBipartiteSpectrum:
    def test_flat_levels_are_a_major(self):
        bs = BipartiteSpectrum((1.0, 2.0), (0.0, 10.0))
        assert list(bs.flat_levels()) == [1.0, 11.0, 2.0, 12.0]
        assert bs.n == 4

    def test_flat_levels_are_the_sums_of_the_fields(self):
        rng = np.random.default_rng(3)
        bs = BipartiteSpectrum(tuple(rng.uniform(-1.0, 2.0, 5)), list(rng.normal(size=40)))
        want = np.add.outer(np.asarray(bs.levels_a), np.asarray(bs.levels_b)).ravel()
        assert bs.flat_levels().tobytes() == want.tobytes()
        # the parts' spectra are kept but are not part of the value
        assert repr(bs) == f"BipartiteSpectrum(levels_a={bs.levels_a!r}, levels_b={bs.levels_b!r})"
        assert bs == BipartiteSpectrum(bs.levels_a, bs.levels_b)

    def test_combined_groups_degenerate_sums(self):
        bs = BipartiteSpectrum((1.0, 2.0, 3.0), (0.0, 0.0))
        combined = bs.combined()
        assert combined.levels == (1.0, 2.0, 3.0)
        assert combined.degeneracies == (2, 2, 2)

    def test_json_round_trip(self):
        bs = BipartiteSpectrum((1.0, 2.0), (0.5,))
        assert BipartiteSpectrum.from_json(bs.to_json()) == bs

    @pytest.mark.parametrize(
        "levels_a,levels_b",
        [
            (((1.0, 2.0),), (0.0,)),
            ((1.0,), ((0.0, 1.0),)),
            ((1.0, math.nan), (0.0,)),
            ((1.0,), (0.0, math.inf)),
            ((), (0.0,)),
            ((1.0,), ()),
        ],
        ids=["nested-a", "nested-b", "nan", "inf", "empty-a", "empty-b"],
    )
    def test_invalid_inputs(self, levels_a, levels_b):
        with pytest.raises(DomainError):
            BipartiteSpectrum(levels_a, levels_b)

    def test_combined_is_grouped_once(self, grouped_calls):
        bs = BipartiteSpectrum((1.0, 2.0, 3.0), (0.0, 1.0))
        assert bs.combined() is bs.combined()
        assert grouped_calls == [6]


class TestRhoC:
    def test_limit_matrix_from_detmax(self):
        dm = detmax_state((1.0, 2.0, 3.0), 1.5, tol=1e-14)
        assert np.max(np.abs(dm.diagonal - RHO_LIMIT)) < 1e-12

    def test_flat_env_equals_bipartite_on_integer_cases(self):
        for dim_b in (4, 64, 2731):
            bs = BipartiteSpectrum((1.0, 2.0, 3.0), (0.0,) * dim_b)
            via_pairs = rho_c_bipartite(bs, epsilon_shift_solve(bs.combined(), 1.5, 2.0))
            via_formula = rho_c_flat_env((1.0, 2.0, 3.0), 1.5, 2.0, 3 * dim_b)
            assert np.allclose(via_pairs.diagonal, via_formula.diagonal, atol=1e-13)

    def test_finite_n_deviation_bound(self):
        for n in (829, 2048, 8193, 100000):
            dm = rho_c_flat_env((1.0, 2.0, 3.0), 1.5, 2.0, n)
            dev = float(np.linalg.norm(dm.diagonal - RHO_LIMIT))
            assert dev <= 4.0 / math.sqrt(n)

    def test_shift_bracket(self):
        lower_coef = 4.0 * (35.0 + 16.0 * SQRT7) / 63.0
        for n in (829, 2048, 8193, 100000):
            frame = epsilon_shift_solve(Spectrum((1.0, 2.0, 3.0)), 1.5, 2.0, dim=n)
            assert (-4.0 + SQRT7) / 3.0 - lower_coef / math.sqrt(n) < frame.shift
            assert frame.shift < (-4.0 + SQRT7) / 3.0

    def test_rejects_a_frame_of_another_problem(self):
        bs = BipartiteSpectrum((1.0, 2.0, 3.0), (0.0, 0.5))
        other = BipartiteSpectrum((1.0, 2.0, 3.0), (0.0, 0.25))
        with pytest.raises(DomainError):
            rho_c_bipartite(bs, epsilon_shift_solve(other.combined(), 2.0, 2.0))
        with pytest.raises(DomainError):
            rho_c_bipartite(bs, epsilon_shift_solve(bs.combined(), 2.0, 2.0, dim=7))

    def test_single_level_part_a_traces_to_one(self):
        bs = BipartiteSpectrum((2.0,), tuple(np.linspace(0.1, 1.5, 4096)))
        dm = rho_c_bipartite(bs, epsilon_shift_solve(bs.combined(), 2.3, 1.0))
        assert dm.dim == 1
        assert dm.trace == pytest.approx(1.0, abs=0.05)

    def test_trace_deviation_identity(self):
        bs = BipartiteSpectrum((1.0, 2.0, 3.0), tuple(np.linspace(0.0, 1.0, 11)))
        dm = rho_c_bipartite(bs, epsilon_shift_solve(bs.combined(), 2.0, 2.0))
        frame = epsilon_shift_solve(bs.combined(), 2.0, 2.0)
        n = frame.dim
        shifted = Spectrum(frame.shifted_levels, frame.base.degeneracies)
        expected = (1.0 + 0.5 / n) * (n / (n + 1.0)) * frame.e_prime / compute_means(shifted).e_harm
        assert dm.trace == pytest.approx(expected, abs=1e-12)

    def test_uniform_environment_diagonal_proportions(self):
        bs = BipartiteSpectrum((1.0, 2.0, 3.0), (0.5,) * 32)
        dm = rho_c_bipartite(bs, epsilon_shift_solve(bs.combined(), 2.0, 2.0))
        frame = epsilon_shift_solve(bs.combined(), 2.0, 2.0)
        shifted_a = np.array([1.0, 2.0, 3.0]) + 0.5 + frame.shift
        ratios = dm.diagonal * shifted_a
        assert np.allclose(ratios, ratios[0], rtol=1e-12)


class TestDelta:
    def test_vanishes_in_the_large_n_limit(self):
        # decays like n^(-1/4) with a sizable constant, so the absolute value
        # only becomes small at very large dimension
        deltas = [
            delta_deviation(constants_for(Spectrum((1.0, 2.0, 3.0)), 1.5, 2.0, dim=n))
            for n in (10**4, 10**6, 10**8, 10**10)
        ]
        assert all(b < a for a, b in zip(deltas, deltas[1:]))
        assert deltas[-1] < 0.15

    def test_direct_formula(self):
        k = constants_for(Spectrum((1.0, 2.0, 3.0)), 1.5, 2.0, dim=8193)
        n = k.n
        ratio = k.frame.e_prime / k.frame.e_prime_min
        order = k.epsilon / math.sqrt(n) + math.log(2 * k.a * n**1.5) / (2 * n)
        want = math.sqrt(ratio * (1 + 1 / n)) * (3 / (8 * n) + 15 * math.sqrt(ratio * order))
        assert delta_deviation(k) == pytest.approx(want, rel=1e-14)

    def test_equals_the_inline_window_exactly(self):
        for spec, n in ((Spectrum((1.0, 2.0, 3.0)), 8193), (Spectrum((0.5, 1.2, 4.0)), 300)):
            k = constants_for(spec, 1.5, 2.0, dim=n)
            ratio = k.frame.e_prime / k.frame.e_prime_min
            order = k.epsilon / math.sqrt(n) + math.log(2.0 * k.a * n ** 1.5) / (2.0 * n)
            inner = 3.0 / (8.0 * n) + 15.0 * math.sqrt(ratio * order)
            assert delta_deviation(k) == math.sqrt(ratio * (1.0 + 1.0 / n)) * inner

    def test_quarter_root_envelope(self):
        for n in (550, 1024, 8193, 100000):
            k = constants_for(Spectrum((1.0, 2.0, 3.0)), 1.5, 2.0, dim=n)
            assert delta_deviation(k) < 58.0 / n**0.25


class TestReducedDmTail:
    def test_prefactor_against_example_budget(self):
        k = constants_for(Spectrum((1.0, 2.0, 3.0), (2731,) * 3), 1.5, 2.0)
        # |A|(|A|+1) a stays below the worked-example budget 3*4*30830
        assert 3 * 4 * k.a <= 369960.0
        assert 3 * 4 * 30830.0 == 369960.0

    def test_cross_module_identity(self):
        k = constants_for(Spectrum((1.0, 2.0, 3.0), (100,) * 3), 1.5, 2.0)
        for dim_a, t in ((3, 0.8), (1, 1.1), (5, 0.4)):
            want = dim_a * (dim_a + 1) * tail_bound(k, t)
            assert reduced_dm_tail(k, dim_a, t) == pytest.approx(want, rel=1e-12)

    def test_single_row_prefactor(self):
        k = constants_for(Spectrum((1.0, 2.0, 3.0), (100,) * 3), 1.5, 2.0)
        assert reduced_dm_tail(k, 1, 0.9) == pytest.approx(2 * tail_bound(k, 0.9), rel=1e-12)

    def test_finite_just_below_the_float_range(self):
        k = constants_for(Spectrum((1.0, 2.0, 3.0), (100,) * 3), 1.5, 2.0)
        dim_a, t = 3, 0.8
        log_rest = math.log(dim_a * (dim_a + 1.0)) + tail_log_bound(k, t) - math.log(k.a)
        # the a whose log bound is 709.5, below ln(max float) = 709.78
        k = dataclasses.replace(k, a=math.exp(709.5 - log_rest))
        got = reduced_dm_tail(k, dim_a, t)
        assert got < math.inf
        assert got == pytest.approx(math.exp(709.5), rel=1e-12)

    def test_domain(self):
        k = constants_for(Spectrum((1.0, 2.0, 3.0), (100,) * 3), 1.5, 2.0)
        with pytest.raises(DomainError):
            reduced_dm_tail(k, 3, 0.0)
        with pytest.raises(DomainError):
            reduced_dm_tail(k, 0, 0.5)


def _constrained_logdet_maximizer(levels, energy):
    """Independent constrained maximizer of sum(log lam) via SLSQP."""
    levels = np.asarray(levels, dtype=float)
    m = levels.size
    x0 = np.full(m, 1.0 / m)
    res = optimize.minimize(
        lambda x: -np.sum(np.log(x)),
        x0,
        jac=lambda x: -1.0 / x,
        constraints=[
            {"type": "eq", "fun": lambda x: x.sum() - 1.0},
            {"type": "eq", "fun": lambda x: float(np.dot(x, levels)) - energy},
        ],
        bounds=[(1e-12, 1.0)] * m,
        method="SLSQP",
        options={"maxiter": 500, "ftol": 1e-14},
    )
    assert res.success, res.message
    return res.x


class TestDetmax:
    def test_two_level_closed_form(self):
        dm = detmax_state((1.0, 0.0), 0.25)
        assert np.allclose(dm.diagonal, [0.25, 0.75], atol=1e-12)

    def test_matches_qubit_canonical(self):
        got = detmax_state((1.0, 0.0), 0.25).diagonal
        want = qubit_canonical(1.0, 0.0, 0.25).diagonal
        assert np.allclose(got, want, atol=1e-12)

    def test_constraints_hold(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            levels = np.sort(rng.uniform(0.1, 5.0, size=4))
            if levels[-1] - levels[0] < 0.2:
                continue
            energy = float(levels[0] + 0.4 * (levels.mean() - levels[0]))
            lam = detmax_state(tuple(levels), energy).diagonal
            assert abs(lam.sum() - 1.0) <= 1e-10
            assert abs(float(np.dot(lam, levels)) - energy) <= 1e-10
            assert np.all(lam > 0.0)

    def test_matches_numerical_maximizer(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            levels = np.sort(rng.uniform(0.2, 4.0, size=4))
            levels[-1] += 0.3
            energy = float(levels[0] + 0.5 * (levels.mean() - levels[0]))
            got = detmax_state(tuple(levels), energy).diagonal
            want = _constrained_logdet_maximizer(levels, energy)
            assert np.max(np.abs(got - want)) < 1e-6

    def test_local_maximality_against_projected_perturbations(self):
        rng = np.random.default_rng(41)
        levels = np.array([0.5, 1.0, 2.2, 3.7])
        energy = 1.1
        lam = detmax_state(tuple(levels), energy).diagonal
        base = np.sum(np.log(lam))
        # tangent space of the two linear constraints
        constraints = np.vstack([np.ones_like(levels), levels])
        _, _, vh = np.linalg.svd(constraints)
        tangent = vh[2:]
        for _ in range(1000):
            direction = rng.normal(size=tangent.shape[0]) @ tangent
            direction /= np.linalg.norm(direction)
            trial = lam + 1e-3 * direction
            if np.any(trial <= 0.0):
                continue
            assert np.sum(np.log(trial)) < base

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            detmax_state((1.0, 2.0, 3.0), 0.5)  # below every level
        with pytest.raises(DomainError):
            detmax_state((1.0, 2.0, 3.0), 2.5)  # above the arithmetic mean

    def test_below_unit_scale_is_the_unit_scale_state(self):
        unit = 2.0 ** -64
        got = detmax_state((unit, 2 * unit, 3 * unit), 1.5 * unit).diagonal
        want = detmax_state((1.0, 2.0, 3.0), 1.5).diagonal
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("unit", [1.0, 2.0 ** -64], ids=["unit", "2^-64"])
    def test_energy_check_scales_with_the_levels(self, monkeypatch, unit):
        # an energy 1e-6 relative high passes no check of 1e-9 of the level scale
        dot = mee.canonical._dot
        monkeypatch.setattr(mee.canonical, "_dot", lambda a, b: dot(a, b) * (1.0 + 1e-6))
        with pytest.raises(NumericalError, match="violates its constraints"):
            detmax_state((unit, 2 * unit, 3 * unit), 1.5 * unit)

    @pytest.mark.parametrize("tol", [math.nan, -1e-12, math.inf])
    def test_bad_tol_is_a_domain_error(self, tol):
        with pytest.raises(DomainError, match="tol must be finite and nonnegative"):
            detmax_state((1.0, 2.0, 3.0), 1.5, tol=tol)


class TestQubit:
    def test_canonical_closed_form(self):
        dm = qubit_canonical(1.0, 0.0, 0.25)
        assert np.allclose(dm.diagonal, [0.25, 0.75])

    def test_ground_state_limit(self):
        dm = qubit_canonical(1.0, 0.0, 1e-12)
        assert dm.diagonal[1] == pytest.approx(1.0, abs=1e-11)

    def test_energy_is_reproduced(self):
        dm = qubit_canonical(3.0, 1.0, 1.6)
        assert float(np.dot(dm.diagonal, [3.0, 1.0])) == pytest.approx(1.6)

    def test_ordering_violations(self):
        for args in ((1.0, 0.0, 0.6), (1.0, 0.0, 0.0), (0.0, 1.0, 0.25)):
            with pytest.raises(DomainError):
                qubit_canonical(*args)

    def test_exact_tail_at_zero_is_one(self):
        assert qubit_exact_tail(1.0, 0.0, 0.25, 10, 0.0) == 1.0

    def test_exact_tail_closed_form_value(self):
        got = qubit_exact_tail(1.0, 0.0, 0.25, 100, 0.2)
        assert got == pytest.approx((1.0 - 0.04 / 0.75) ** 99, rel=1e-12)

    def test_exact_tail_matches_radial_quadrature(self):
        # the two-dimensional disc integral of the radial density, reduced to
        # its radial part (the angular integral is exact)
        for (e1, e2, energy, dim_b) in ((1.0, 0.0, 0.25, 10), (3.0, 1.0, 1.6, 50)):
            disc = 4.0 * (e1 - energy) * (energy - e2) / (e1 - e2) ** 2
            rz2 = 1.0 - disc
            for eps in (0.1, 0.3):
                def f(s):
                    return s * hall_radial_density(dim_b, math.sqrt(s * s + rz2))

                num, _ = integrate.quad(f, eps, math.sqrt(disc), epsabs=1e-14)
                den, _ = integrate.quad(f, 0.0, math.sqrt(disc), epsabs=1e-14)
                assert qubit_exact_tail(e1, e2, energy, dim_b, eps) == pytest.approx(
                    num / den, abs=1e-9
                )

    def test_clamps_to_zero_outside_the_disc(self):
        assert qubit_exact_tail(1.0, 0.0, 0.25, 10, 0.99) == 0.0

    @settings(deadline=None, max_examples=80)
    @given(
        st.floats(min_value=0.0, max_value=1.2),
        st.integers(min_value=2, max_value=500),
    )
    def test_exponential_bound_dominates(self, eps, dim_b):
        exact = qubit_exact_tail(1.0, 0.0, 0.25, dim_b, eps)
        bound = qubit_exponential_bound(1.0, 0.0, 0.25, dim_b, eps)
        # 1e-12 absolute slack: for eps ~ 1e-8 both sides sit within a few
        # ulps of 1 and the float rounding of eps^2 can invert the order
        assert exact <= bound + 1e-12

    def test_both_tails_decrease_in_eps_and_dim(self):
        epss = np.linspace(0.0, 0.8, 9)
        exact = [qubit_exact_tail(1.0, 0.0, 0.25, 40, e) for e in epss]
        expo = [qubit_exponential_bound(1.0, 0.0, 0.25, 40, e) for e in epss]
        assert all(b <= a + 1e-12 for a, b in zip(exact, exact[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(expo, expo[1:]))
        dims = [2, 5, 20, 100]
        exact_d = [qubit_exact_tail(1.0, 0.0, 0.25, d, 0.3) for d in dims]
        assert all(b <= a for a, b in zip(exact_d, exact_d[1:]))


class TestHallDensity:
    def test_flat_for_dim_two(self):
        want = 3.0 / (4.0 * math.pi)  # inverse volume of the unit ball
        for r in (0.0, 0.3, 0.99, 1.0):
            assert hall_radial_density(2, r) == pytest.approx(want, rel=1e-12)

    def test_vanishes_at_the_surface(self):
        assert hall_radial_density(5, 1.0) == 0.0
        assert hall_radial_density(50, 1.0) == 0.0

    @pytest.mark.parametrize("dim_b", [2, 5, 50])
    def test_normalization_by_quadrature(self, dim_b):
        total, _ = integrate.quad(
            lambda r: 4.0 * math.pi * r * r * hall_radial_density(dim_b, r), 0.0, 1.0,
            epsabs=1e-12,
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            hall_radial_density(1, 0.5)
        with pytest.raises(DomainError):
            hall_radial_density(5, 1.5)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: DensityMatrix(np.zeros((2, 3))), "must be square and nonempty"),
        (lambda: DensityMatrix(np.zeros((0, 0))), "must be square and nonempty"),
        (lambda: DensityMatrix(np.zeros((2, 2))).normalized(), "nonpositive trace"),
        (lambda: DensityMatrix.from_diagonal([0.5, 0.5]).hs_distance(
            DensityMatrix.from_diagonal([1.0])), "^dimension mismatch$"),
        (lambda: qubit_exact_tail(3.0, 1.0, 1.5, 1, 0.1), "dim_b must be at least 2"),
        (lambda: qubit_exponential_bound(3.0, 1.0, 1.5, 4, -0.1), "eps must be nonnegative"),
    ],
    ids=["not-square", "empty", "zero-trace", "hs-dimensions", "dim-b-1", "negative-eps"],
)
def test_error_paths(call, message):
    with pytest.raises(DomainError, match=message):
        call()
