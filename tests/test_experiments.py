import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bisect_shift

from mee import (
    BipartiteSpectrum,
    DensityMatrix,
    DomainError,
    ExperimentReport,
    Measured,
    RngSpec,
    SpinEnsembleSpec,
    Spectrum,
    binary_entropy,
    constants_for,
    harmonic_frame,
    moment_report_streamed,
    reduced_dm_report,
    rho_c_bipartite,
    sample_gaussian_ensemble,
    sample_sphere,
    spin_concentration_probe,
    spin_spectrum,
    tail_report,
)
from mee.experiments import _reduced_states, _tail_curve, subbatch_mean_error
from mee.io import dumps_record
from mee.sampling import chunk_layout, default_shell_width
from mee.spectrum import _dot, harmonic_shift_solve


class TestMeasured:
    def test_sigma_rule(self):
        assert Measured("x", 1.02, 0.01, 1.0, "sigmas", 5.0).passed
        assert not Measured("x", 1.2, 0.01, 1.0, "sigmas", 5.0).passed

    def test_relative_rule(self):
        assert Measured("x", 1.05, None, 1.0, "relative", 0.1).passed
        assert not Measured("x", 1.2, None, 1.0, "relative", 0.1).passed

    def test_relative_to_zero_reference_is_a_domain_error(self):
        with pytest.raises(DomainError):
            Measured("x", 0.0, None, 0.0, "relative", 1e-9).passed

    def test_lower_and_upper_rules(self):
        assert Measured("x", 0.26, 0.01, 0.25, "lower", 5.0).passed
        assert Measured("x", 0.22, 0.01, 0.25, "lower", 5.0).passed  # within 5 se
        assert not Measured("x", 0.1, 0.01, 0.25, "lower", 5.0).passed
        assert Measured("x", 170.0, None, 176.0, "upper").passed
        assert not Measured("x", 180.0, None, 176.0, "upper").passed

    def test_factor_rule(self):
        assert Measured("x", 0.6, None, 1.0, "factor", 2.0).passed
        assert not Measured("x", 0.4, None, 1.0, "factor", 2.0).passed

    def test_informational_has_no_verdict(self):
        assert Measured("x", 1.0).passed is None

    def test_non_finite_fields_round_trip_through_strict_json(self):
        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        m = Measured("x", math.nan, math.inf, 1.0, "relative", 0.1)
        obj = json.loads(dumps_record(m.to_json()), parse_constant=reject)
        assert obj["value"] is None and obj["std_error"] is None
        assert obj["non_finite"] == {"value": "nan", "std_error": "inf"}
        back = Measured.from_json(obj)
        assert math.isnan(back.value) and back.std_error == math.inf
        assert (back.reference, back.mode, back.tolerance) == (1.0, "relative", 0.1)

    def test_finite_entry_has_no_flag(self):
        assert "non_finite" not in Measured("x", 1.0, 0.1, 1.0, "sigmas", 5.0).to_json()


class TestReportSerialization:
    def test_round_trip_identity(self):
        report = ExperimentReport(
            name="demo",
            inputs={"count": 10, "nested": {"a": [1, 2.5]}},
            measured=(
                Measured("m1", 0.5, 0.01, 0.49, "sigmas", 5.0),
                Measured("m2", 2.0, None, None, "none", 0.0),
            ),
        )
        blob = json.dumps(report.to_json(), sort_keys=True)
        back = ExperimentReport.from_json(json.loads(blob))
        assert back == report
        assert json.dumps(back.to_json(), sort_keys=True) == blob

    def test_aggregate_verdict(self):
        good = Measured("a", 1.0, None, 1.0, "relative", 0.1)
        bad = Measured("b", 2.0, None, 1.0, "relative", 0.1)
        info = Measured("c", 7.0)
        assert ExperimentReport("r", {}, (good, info)).passed
        assert not ExperimentReport("r", {}, (good, bad)).passed


class TestEstimateReducedDm:
    """Per-state reduced states, as the reduced-dm report folds them."""

    def test_product_state_copies(self):
        state = np.zeros(6, dtype=complex)
        state[0] = 1.0 / math.sqrt(2.0)
        state[1] = 1j / math.sqrt(2.0)  # |0>_A x phi_B
        rhos = _reduced_states(np.tile(state, (10, 1)), 3, 2)
        want = np.zeros((3, 3))
        want[0, 0] = 1.0
        assert rhos.shape == (10, 3, 3)
        assert np.allclose(rhos, want, atol=1e-12)

    def test_unconstrained_states_are_maximally_mixed(self):
        batch = sample_sphere(3 * 64, 8000, RngSpec(seed=21))
        rho = _reduced_states(batch.states, 3, 64).mean(axis=0)
        assert np.max(np.abs(rho - np.eye(3) / 3.0)) < 0.01

    def test_basic_invariants(self):
        frame = harmonic_frame(Spectrum((1.0, 2.0, 3.0), (8, 8, 8)), 1.5)
        batch = sample_gaussian_ensemble(frame, 2000, RngSpec(seed=22))
        rhos = _reduced_states(batch.states, 3, 8)
        for rho in (rhos[0], rhos.mean(axis=0)):
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
            assert np.allclose(rho, rho.conj().T)
            assert np.linalg.eigvalsh(rho).min() > -1e-10

    @pytest.mark.parametrize("workers", [1, 2])
    def test_row_blocks_match_the_whole_batch_formula(self, workers):
        bs = BipartiteSpectrum((1.0, 2.0, 3.0), (0.0,) * 64)
        dim_a, dim_b = bs.dim_a, bs.dim_b
        count = chunk_layout(10**9, dim_a * dim_b)[0] + 88  # two chunks
        rng = RngSpec(seed=42)
        report, rho_hat = reduced_dm_report(bs, 1.5, 2.0, count, rng, workers=workers)

        frame = harmonic_frame(Spectrum(bs.flat_levels().tolist()), 1.5)
        states = sample_gaussian_ensemble(frame, count, rng).states
        psi = states / np.linalg.norm(states, axis=1, keepdims=True)
        psi = psi.reshape(count, dim_a, dim_b)
        rhos = np.einsum("mak,mbk->mab", psi, psi.conj())
        rho = rhos.sum(axis=0) / count
        want = 0.5 * (rho + rho.conj().T)
        assert np.max(np.abs(rho_hat.matrix - want)) <= 1e-14 * np.max(np.abs(want))
        rho_ref = rho_c_bipartite(bs, constants_for(bs.combined(), 1.5, 2.0).frame)
        devs = np.linalg.norm(rhos - rho_ref.matrix, axis=(1, 2))
        mean_dev = {m.name: m for m in report.measured}["mean_hs_deviation"].value
        assert abs(mean_dev - devs.mean()) <= 1e-14 * devs.mean()

    def test_chunk_sums_fold_in_chunk_order(self):
        # the mean reduced state is the chunk sums added to zero one by one,
        # in chunk order
        bs = BipartiteSpectrum((1.0, 2.0, 3.0), (0.0,) * 64)
        layout = chunk_layout(25000, bs.dim_a * bs.dim_b)
        assert len(layout) == 3
        rng = RngSpec(seed=43)
        _, rho_hat = reduced_dm_report(bs, 1.3, 2.0, 25000, rng, workers=2)

        frame = harmonic_frame(Spectrum(bs.flat_levels().tolist()), 1.3)
        states = sample_gaussian_ensemble(frame, 25000, rng).states
        rho_sum = np.zeros((bs.dim_a, bs.dim_a), dtype=complex)
        edges = np.cumsum([0, *layout])
        for lo, hi in zip(edges[:-1], edges[1:]):
            rho_sum = rho_sum + _reduced_states(states[lo:hi], bs.dim_a, bs.dim_b).sum(axis=0)
        want = DensityMatrix(0.5 * (rho_sum + rho_sum.conj().T) / 25000)
        assert rho_hat.matrix.tobytes() == want.matrix.tobytes()


class TestEmpiricalTail:
    """The empirical tail curve: of a plain sample, and as the tail report
    streams it from the Gaussian ensemble."""

    SPEC = Spectrum((1.0, 2.0, 3.0), (342, 341, 341))

    def test_constant_function_never_exceeds(self):
        curve = _tail_curve(np.ones(200), np.array([0.1, 0.5, 1.0]), np.ones(3))
        assert np.all(curve.frequencies == 0.0)

    def test_coordinate_median_is_near_zero(self):
        spec = Spectrum((1.0, 2.0, 3.0), (22, 21, 21))
        _, curve = tail_report(spec, 1.5, 2.0, 20000, RngSpec(seed=25), [0.1])
        # Re psi_1 is symmetric about zero; the median sits well inside its spread
        assert abs(curve.median) < 0.01

    def test_frequencies_are_nonincreasing(self):
        spec = Spectrum((1.0, 2.0, 3.0), (22, 21, 21))
        ts = np.linspace(0.0, 0.5, 21)
        _, curve = tail_report(spec, 1.5, 2.0, 5000, RngSpec(seed=26), ts)
        assert np.all(np.diff(curve.frequencies) <= 1e-15)

    def test_empty_sample_rejected(self):
        with pytest.raises(DomainError, match="empty sample"):
            tail_report(self.SPEC, 1.5, 2.0, 0, RngSpec(seed=27), [0.1])

    def test_unsorted_ts_rejected(self):
        with pytest.raises(DomainError, match="sorted"):
            tail_report(self.SPEC, 1.5, 2.0, 50, RngSpec(seed=27), [0.5, 0.1])

    def test_unsorted_ts_rejected_before_any_draw(self, monkeypatch):
        import mee.sampling

        calls = []
        real = mee.sampling.gaussian_chunk

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(mee.sampling, "gaussian_chunk", counted)
        with pytest.raises(DomainError, match="ts must be sorted ascending"):
            tail_report(self.SPEC, 1.5, 2.0, 5000, RngSpec(seed=27), [0.5, 0.1], workers=1)
        assert calls == []
        tail_report(self.SPEC, 1.5, 2.0, 50, RngSpec(seed=27), [0.1, 0.5], workers=1)
        assert calls == [1]  # the counter sits where the stream draws

    def test_negative_t_rejected_before_any_draw(self, monkeypatch):
        import mee.sampling

        calls = []
        real = mee.sampling.gaussian_chunk

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(mee.sampling, "gaussian_chunk", counted)
        with pytest.raises(DomainError, match="deviation t must be nonnegative"):
            tail_report(self.SPEC, 1.5, 2.0, 5000, RngSpec(seed=27), [-0.1, 0.2], workers=1)
        assert calls == []
        tail_report(self.SPEC, 1.5, 2.0, 50, RngSpec(seed=27), [0.0, 0.2], workers=1)
        assert calls == [1]

    def test_empirical_curve_below_clamped_bound(self):
        # example-style spectrum at moderate dimension; the analytic bound is
        # vacuous (clamped to 1) at this n, and the empirical curve sits under it
        ts = np.linspace(0.01, 1.0, 12)
        _, curve = tail_report(self.SPEC, 1.5, 2.0, 10000, RngSpec(seed=28), ts)
        assert curve.bounds.shape == ts.shape
        assert np.all(curve.frequencies <= curve.bounds)
        assert np.all(curve.bounds <= 1.0)


class TestTailReport:
    def test_matches_per_state_loop(self):
        # reference: the per-state loop over a separately normalized copy.
        # An odd count makes the median one sample value, so a 1-ulp drift
        # in the per-state values (e.g. Re(psi_1) / norm) changes it.
        spec = Spectrum((1.0, 2.0, 3.0), (300, 300, 300))
        rng = RngSpec(seed=29)
        ts = [0.001, 0.01, 0.02, 0.05]
        states = sample_gaussian_ensemble(harmonic_frame(spec, 1.5), 3001, rng).states
        states = states / np.linalg.norm(states, axis=1, keepdims=True)
        values = np.array([float(psi[0].real) for psi in states])
        median = float(np.median(values))
        freqs = [float(np.mean(np.abs(values - median) > t)) for t in ts]
        for workers in (1, 2):  # the report streams two chunks
            report, curve = tail_report(spec, 1.5, 2.0, 3001, rng, ts, workers=workers)
            assert curve.median == median
            assert report.inputs["median"] == median
            assert curve.frequencies.tolist() == freqs
            bounds = curve.bounds.tolist()
            assert [m.value for m in report.measured] == [f - b for f, b in zip(freqs, bounds)]
            assert [m.name for m in report.measured] == [
                f"excess_over_bound_t_{t:g}" for t in ts
            ]


class TestMomentReport:
    def test_streamed_equals_materialized(self):
        frame = harmonic_frame(Spectrum((1.0, 2.0, 3.0), (20, 20, 20)), 1.5)
        rng = RngSpec(seed=30)
        p = np.abs(sample_gaussian_ensemble(frame, 4000, rng).states) ** 2
        norm2, hq = p.sum(axis=1), _dot(p, frame.expanded_levels)
        report = moment_report_streamed(frame, 4000, rng)
        by_name = {m.name: m for m in report.measured}
        for name, values in (("mean_norm_sq", norm2), ("mean_shifted_energy", hq)):
            assert (by_name[name].value, by_name[name].std_error) == subbatch_mean_error(values)
        assert by_name["var_norm_sq"].value == float(norm2.var(ddof=1))
        assert by_name["var_shifted_energy"].value == float(hq.var(ddof=1))

    def test_empty_sample_rejected(self):
        frame = harmonic_frame(Spectrum((1.0, 2.0, 3.0)), 1.5)
        with pytest.raises(DomainError, match="^cannot estimate from an empty sample$"):
            moment_report_streamed(frame, 0, RngSpec(seed=30))

    def test_workers_do_not_change_results(self):
        frame = harmonic_frame(Spectrum((1.0, 2.0, 3.0), (40, 40, 40)), 1.5)
        rng = RngSpec(seed=31)
        a = moment_report_streamed(frame, 6000, rng, workers=1)
        b = moment_report_streamed(frame, 6000, rng, workers=4)
        assert a == b

    def test_identities_hold(self):
        frame = harmonic_frame(Spectrum((1.0, 2.0, 3.0), (128, 128, 128)), 1.5)
        report = moment_report_streamed(frame, 30000, RngSpec(seed=32))
        assert report.passed
        by_name = {m.name: m for m in report.measured}
        assert by_name["mean_norm_sq"].reference == 1.0
        assert by_name["mean_shifted_energy"].reference == pytest.approx(frame.e_prime)

    def test_all_equal_spectrum_norm_variance(self):
        n = 64
        frame = harmonic_frame(Spectrum((2.0,), (n,)), 2.0)
        report = moment_report_streamed(frame, 30000, RngSpec(seed=33))
        by_name = {m.name: m for m in report.measured}
        assert by_name["var_norm_sq"].reference == pytest.approx(1.0 / n)
        assert by_name["var_norm_sq"].passed


class TestReducedDmReport:
    def test_small_example_passes(self):
        bs = BipartiteSpectrum((1.0, 2.0, 3.0), (0.0,) * 64)
        report, rho_hat = reduced_dm_report(bs, 1.5, 2.0, 3000, RngSpec(seed=36))
        assert report.passed
        assert rho_hat.trace == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(rho_hat.matrix, rho_hat.matrix.conj().T)
        assert rho_hat.eigenvalues().min() > -1e-10
        by_name = {m.name: m for m in report.measured}
        assert by_name["mean_hs_deviation"].value < by_name["mean_hs_deviation"].reference

    def test_groups_the_combined_spectrum_once(self, grouped_calls):
        bs = BipartiteSpectrum((1.0, 2.0, 3.0), (0.0,) * 16)
        reduced_dm_report(bs, 1.5, 2.0, 200, RngSpec(seed=38), workers=1)
        assert grouped_calls == [48]

    def test_solves_the_epsilon_shift_once(self, epsilon_solves):
        bs = BipartiteSpectrum((1.0, 2.0, 3.0), (0.0,) * 16)
        reduced_dm_report(bs, 1.5, 2.0, 200, RngSpec(seed=38), workers=1)
        assert epsilon_solves == [48]

    def test_workers_do_not_change_results(self):
        bs = BipartiteSpectrum((1.0, 2.0), (0.0,) * 32)
        a, rho_a = reduced_dm_report(bs, 1.3, 2.0, 2000, RngSpec(seed=37), workers=1)
        b, rho_b = reduced_dm_report(bs, 1.3, 2.0, 2000, RngSpec(seed=37), workers=3)
        assert a == b
        assert np.array_equal(rho_a.matrix, rho_b.matrix)

    def test_empty_sample_rejected_without_a_warning(self):
        bs = BipartiteSpectrum((1.0, 2.0), (0.0,) * 32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="^cannot estimate from an empty sample$"):
                reduced_dm_report(bs, 1.3, 2.0, 0, RngSpec(seed=37))


class TestSpinSpectrum:
    def test_single_spin(self):
        s = spin_spectrum(1)
        assert s.levels == (0.0, 1.0)
        assert s.degeneracies == (1, 1)

    def test_four_spins_binomial(self):
        s = spin_spectrum(4)
        assert s.degeneracies == (1, 4, 6, 4, 1)
        assert s.n == 16

    @pytest.mark.parametrize("m", [1, 3, 7, 12])
    def test_arithmetic_mean_is_half_m(self, m):
        from mee import compute_means

        assert compute_means(spin_spectrum(m)).e_arith == pytest.approx(m / 2.0)

    def test_range(self):
        for m in (0, 31):
            with pytest.raises(DomainError):
                spin_spectrum(m)


class TestBinaryEntropy:
    def test_symmetric_peak(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoint_limits(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_quarter_value(self):
        assert binary_entropy(0.25) == pytest.approx(2.0 - 0.75 * math.log2(3.0), abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            binary_entropy(-0.1)
        with pytest.raises(DomainError):
            binary_entropy(1.1)

    @settings(deadline=None, max_examples=100)
    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_bounded_and_symmetric(self, g):
        h = binary_entropy(g)
        assert 0.0 <= h <= 1.0
        assert h == pytest.approx(binary_entropy(1.0 - g), abs=1e-12)


class TestSpinProbe:
    def test_spec_validation(self):
        with pytest.raises(DomainError):
            SpinEnsembleSpec(m=5, alpha=0.6, gamma=0.4)
        with pytest.raises(DomainError):
            SpinEnsembleSpec(m=5, alpha=0.3, gamma=0.2)

    def test_small_system_probe(self):
        spec = SpinEnsembleSpec(m=6, alpha=0.3, gamma=0.4)
        report = spin_concentration_probe(spec, 3000, RngSpec(seed=38))
        by_name = {m.name: m for m in report.measured}
        # normalization floor: L >= 1 - alpha/gamma up to MC error
        occ = by_name["occupation_below_cut"]
        assert occ.passed
        assert occ.value >= occ.reference - 5 * occ.std_error
        assert by_name["partition_identity"].passed
        count = by_name["low_level_count"]
        assert count.value == sum(math.comb(6, k) for k in range(3))  # levels 0,1,2
        assert count.passed
        assert by_name["kappa_ceiling_b1"].passed is None
        assert by_name["max_coordinate_variance"].passed is None
        assert report.inputs["acceptance_rate"] > 0.0
        # c agrees with an independent bisection of the harmonic shift and
        # sits within a factor 2 of its scale (3/32) * 2^-6 / (1 - 2 alpha)
        c = by_name["tail_constant_c"]
        spins = spin_spectrum(6)
        s = bisect_shift(spins.levels, np.array(spins.degeneracies) / spins.n, 0.3 * 6)
        assert c.value == pytest.approx(3.0 * s / (32.0 * (0.3 * 6 + s)), rel=1e-9)
        c_reference = (3.0 / 32.0) * 2.0 ** -6 / (1.0 - 2.0 * 0.3)
        assert 0.5 <= c.value / c_reference <= 2.0
        assert c.reference == pytest.approx(c_reference, rel=1e-12)
        assert c.passed

    def test_tail_constant_and_shell_width_at_the_harmonic_shift(self):
        spec = SpinEnsembleSpec(m=6, alpha=0.3, gamma=0.4)
        report = spin_concentration_probe(spec, 200, RngSpec(seed=40))
        c = {m.name: m for m in report.measured}["tail_constant_c"]
        energy = 0.3 * 6  # the probe's alpha * m, 1.7999999999999998
        s = harmonic_shift_solve(spin_spectrum(6), energy)
        assert c.value == 3 * s / (32 * (energy + s))
        assert report.inputs["harmonic_shift"] == s
        assert report.inputs["eta"] == default_shell_width(spin_spectrum(6))

    def test_occupation_floor_identity(self):
        # the weighted occupation numbers resolve the analytic constraint
        spec = SpinEnsembleSpec(m=6, alpha=0.25, gamma=0.45)
        report = spin_concentration_probe(spec, 3000, RngSpec(seed=39))
        by_name = {m.name: m for m in report.measured}
        assert by_name["occupation_below_cut"].reference == pytest.approx(1 - 0.25 / 0.45)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Measured("x", 1.0, mode="sigmas").passed, "has mode sigmas but no reference"),
        (lambda: Measured("x", 1.0, reference=1.0, mode="within").passed,
         "unknown pass mode 'within'"),
        (lambda: subbatch_mean_error([]), "cannot estimate from an empty sample"),
    ],
    ids=["no-reference", "unknown-mode", "empty-sample"],
)
def test_error_paths(call, message):
    with pytest.raises(DomainError, match=message):
        call()


def test_one_value_has_no_standard_error():
    assert subbatch_mean_error([2.5]) == (2.5, math.inf)
    assert subbatch_mean_error([2.5], [3.0]) == (2.5, math.inf)
