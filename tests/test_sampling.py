import json
import math
import threading
import time
import tracemalloc
import warnings
from contextlib import closing

import numpy as np
import pytest

import mee.sampling as sampling_mod

from mee import (
    DomainError,
    LowAcceptanceWarning,
    RngSpec,
    Spectrum,
    default_shell_width,
    gradient_norm,
    harmonic_frame,
    oracle_manifold_sample,
    sample_gaussian_ensemble,
    sample_sphere,
)
from mee.canonical import BipartiteSpectrum
from mee.experiments import (
    _gaussian_stream,
    _reduced_states,
    moment_report_streamed,
    reduced_dm_report,
    spin_spectrum,
    tail_report,
)
from mee.sampling import (
    _chunk_stream,
    _complex_normals,
    _gaussian_draw,
    _map_ordered,
    chunk_layout,
    gaussian_chunk,
)
from mee.spectrum import _dot
from conftest import (
    ReferenceShellScreen,
    three_level_manifold_moments,
    three_level_occupations,
    weighted_mean_and_error,
)

SPEC123 = Spectrum((1.0, 2.0, 3.0))
# A block budget of at least one chunk plus 16 rows at every n: streams then
# draw and reduce each chunk as one block.
WHOLE_CHUNK_BLOCKS = 1 << 40
GENERATOR = RngSpec.generator


class TestRngSpec:
    def test_reproducible_bit_for_bit(self):
        a = RngSpec(seed=99, stream=3).generator(0).standard_normal(64)
        b = RngSpec(seed=99, stream=3).generator(0).standard_normal(64)
        assert np.array_equal(a, b)

    def test_streams_are_distinct(self):
        a = RngSpec(seed=99, stream=0).generator(0).standard_normal(8)
        b = RngSpec(seed=99, stream=1).generator(0).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_chunks_are_distinct(self):
        spec = RngSpec(seed=99)
        a = spec.generator(chunk=0).standard_normal(8)
        b = spec.generator(chunk=1).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            RngSpec(seed=-1)


class TestChunking:
    def test_layout_covers_count(self):
        for count, n in ((0, 4), (1, 4), (1000, 3), (10**5, 4096)):
            layout = chunk_layout(count, n)
            assert sum(layout) == count
            assert all(s > 0 for s in layout)

    def test_materialized_equals_streamed(self):
        frame = harmonic_frame(SPEC123, 1.5)
        rng = RngSpec(seed=5)
        batch = sample_gaussian_ensemble(SPEC123, 1.5, 2000, rng)
        (streamed,) = _gaussian_stream(frame, 2000, rng, lambda s: (s.copy(),), 1)
        assert np.array_equal(batch.states, streamed)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_stream_concatenates_each_array_in_chunk_order(self, workers):
        # bipartite 3 x 300 (n = 900): chunks of 2330, 2330 and 340 states
        bs = BipartiteSpectrum((1.0, 2.0, 3.0), (0.0,) * 300)
        frame = harmonic_frame(Spectrum(bs.flat_levels().tolist()), 1.3)
        rng = RngSpec(seed=6)
        count = 5000
        layout = chunk_layout(count, frame.dim)
        assert len(layout) == 3
        states = sample_gaussian_ensemble(frame.base, 1.3, count, rng).states
        firsts, norms = _gaussian_stream(
            frame, count, rng, lambda s: (s[:, 0].copy(), np.linalg.norm(s, axis=1)), workers
        )
        assert firsts.tobytes() == states[:, 0].tobytes()
        want = [np.linalg.norm(part, axis=1) for part in np.array_split(states, 10)]
        assert norms.tobytes() == np.concatenate(want).tobytes()
        # reduced-dm sums its per-state reduced states chunk by chunk, in
        # chunk order, as a sum of per-chunk sums of the materialized batch
        edges = np.cumsum([0, *layout])
        rho_sum = np.zeros((bs.dim_a, bs.dim_a), dtype=complex)
        for lo, hi in zip(edges[:-1], edges[1:]):
            rho_sum = rho_sum + _reduced_states(states[lo:hi], bs.dim_a, bs.dim_b).sum(axis=0)
        want = 0.5 * (rho_sum + rho_sum.conj().T) / count
        _, rho_hat = reduced_dm_report(bs, 1.3, 2.0, count, rng, workers=workers)
        assert rho_hat.matrix.tobytes() == want.tobytes()

    @pytest.mark.parametrize("count", [0, -1])
    def test_stream_rejects_an_empty_sample_before_any_draw(self, monkeypatch, count):
        def forbidden(*args, **kwargs):
            raise AssertionError("the stream drew")

        monkeypatch.setattr(sampling_mod, "gaussian_chunk", forbidden)
        frame = harmonic_frame(SPEC123, 1.5)
        with pytest.raises(DomainError, match="^cannot estimate from an empty sample$"):
            _gaussian_stream(frame, count, RngSpec(seed=7), lambda s: (s.copy(),), 1)

    def test_same_spec_same_batch(self):
        a = sample_gaussian_ensemble(SPEC123, 1.5, 500, RngSpec(seed=1, stream=2))
        b = sample_gaussian_ensemble(SPEC123, 1.5, 500, RngSpec(seed=1, stream=2))
        assert np.array_equal(a.states, b.states)

    def test_batches_are_the_per_chunk_reference_draws(self):
        """Batch bytes pinned to one fresh draw per chunk of the layout:
        sigma-scaled for the Gaussian ensemble, row-normalized for the sphere."""
        spec = Spectrum((1.0, 2.0, 3.0), (700, 700, 700))
        frame = harmonic_frame(spec, 1.5)
        n = frame.dim
        rng = RngSpec(seed=23, stream=1)
        count = 2500
        layout = chunk_layout(count, n)
        assert len(layout) >= 3 and layout[-1] < layout[0]
        sig = np.sqrt(frame.e_prime / (2.0 * n * frame.expanded_levels))
        gauss, sphere = [], []
        for i, size in enumerate(layout):
            z = rng.generator(i).standard_normal((size, n, 2)).view(np.complex128)[..., 0]
            gauss.append(z * sig)
            sphere.append(z / np.linalg.norm(z, axis=1, keepdims=True))
        got = sample_gaussian_ensemble(spec, 1.5, count, rng).states
        assert got.tobytes() == np.concatenate(gauss).tobytes()
        got = sample_sphere(n, count, rng).states
        assert got.tobytes() == np.concatenate(sphere).tobytes()


class TestDrawBuffers:
    def test_reused_buffer_is_bit_identical_to_fresh_draws(self):
        spec = Spectrum((1.0, 2.0, 3.0), (700, 700, 700))
        frame = harmonic_frame(spec, 1.5)
        rng = RngSpec(seed=21)
        layout = chunk_layout(2500, frame.dim)
        assert len(layout) == 3 and layout[-1] < layout[0]
        buf = np.empty((layout[0], frame.dim, 2))
        draw = _gaussian_draw(frame)
        for i, size in enumerate(layout):
            fresh = draw(rng.generator(i), np.empty((size, frame.dim, 2)))
            into = draw(rng.generator(i), buf[:size])
            assert np.shares_memory(into, buf)
            assert into.shape == fresh.shape
            assert into.tobytes() == fresh.tobytes()
            # successive blocks of one generator continue the chunk's draw
            gen = rng.generator(i)
            blocks = [draw(gen, buf[:rows]).copy() for rows in (48, 5, size - 53)]
            assert np.concatenate(blocks).tobytes() == fresh.tobytes()
            raw = _complex_normals(rng.generator(i), buf[:size])
            alone = _complex_normals(rng.generator(i), np.empty((size, frame.dim, 2)))
            assert raw.tobytes() == alone.tobytes()

    def test_chunks_are_drawn_in_blocks_of_the_budget(self, monkeypatch):
        seen = []

        def draw(gen, out):
            seen.append(out)
            return out.view(np.complex128)[..., 0]

        # chunks of 5 states in C^3, blocks of 4
        monkeypatch.setattr(sampling_mod, "_CHUNK_SCALARS", 5 * 2 * 3)
        monkeypatch.setattr(sampling_mod, "_NORM_BLOCK_SCALARS", 4 * 2 * 3)
        task, items = _chunk_stream(RngSpec(seed=1), draw, lambda s: (s.real[:, 0].copy(),), 12, 3)
        assert items == [(0, 5), (1, 5), (2, 2)]
        for item in items:
            task(item)
        assert [b.shape for b in seen] == [(4, 3, 2), (1, 3, 2)] * 2 + [(2, 3, 2)]
        assert all(b.dtype == np.float64 for b in seen)

    def test_blocks_hold_the_budget_within_one_chunk(self):
        assert sampling_mod._block_rows(4096) == 16
        assert sampling_mod._block_rows(1024) == 64
        assert sampling_mod._block_rows(900) == 72
        assert sampling_mod._block_rows(60) == 1092
        assert sampling_mod._block_rows(2**17) == 1  # the budget fits no row
        assert sampling_mod._block_rows(2**21) == 1
        # a chunk smaller than a block gets a buffer of the chunk's rows
        assert sampling_mod._block_rows(3) > 7
        seen = []

        def draw(gen, out):
            seen.append(out.base.shape)
            return _complex_normals(gen, out)

        task, items = _chunk_stream(RngSpec(seed=1), draw, lambda s: (s.real[:, 0].copy(),), 7, 3)
        assert items == [(0, 7)]
        task(items[0])
        assert seen == [(7, 3, 2)]


SPEC1024 = Spectrum((1.0, 2.0, 3.0), (342, 341, 341))  # chunks of 2048 + 517 states
BIP900 = BipartiteSpectrum((1.0, 2.0, 3.0), (0.0,) * 300)  # chunks of 2330, 2330, 340


class TestRowBlocks:
    """Streams draw and reduce each chunk in row blocks, and give the bytes of
    the whole-chunk path at any block size.  The default budget gives blocks
    of 64 rows at n = 1024 and of 72 at n = 900: a chunk of 517 states is 8
    blocks and one of 5 rows, one of 340 is 4 blocks and one of 52.  A budget
    of 7 * 2048 reals gives blocks of 7 rows at both."""

    @staticmethod
    def _run(experiment, workers):
        rng = RngSpec(seed=4)
        if experiment == "moments":
            report = moment_report_streamed(SPEC1024, 1.5, 2565, rng, workers=workers)
            return json.dumps(report.to_json())
        if experiment == "tail":
            report, curve = tail_report(SPEC1024, 1.5, 2.0, 2565, rng, [0.02, 0.05, 0.1],
                                        workers=workers)
            return json.dumps(report.to_json()), curve.to_rows().tobytes()
        report, rho = reduced_dm_report(BIP900, 1.3, 2.0, 5000, rng, workers=workers)
        return json.dumps(report.to_json()), rho.matrix.tobytes()

    def _assert_blocked_equals_whole(self, monkeypatch, experiment, workers):
        n = 900 if experiment == "reduced-dm" else 1024
        rows = []

        def spy(scale, gen, out):
            rows.append(out.shape[0])
            return gaussian_chunk(scale, gen, out)

        monkeypatch.setattr(sampling_mod, "gaussian_chunk", spy)
        blocked = self._run(experiment, workers)
        assert max(rows) == sampling_mod._NORM_BLOCK_SCALARS // (2 * n)
        assert len(rows) > 3 * 5000 // 2330
        rows.clear()
        monkeypatch.setattr(sampling_mod, "_NORM_BLOCK_SCALARS", WHOLE_CHUNK_BLOCKS)
        whole = self._run(experiment, workers)
        assert sorted(rows) in ([517, 2048], [340, 2330, 2330])
        assert blocked == whole

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("experiment", ["moments", "tail", "reduced-dm"])
    def test_reports_equal_the_whole_chunk_path(self, monkeypatch, experiment, workers):
        self._assert_blocked_equals_whole(monkeypatch, experiment, workers)

    @pytest.mark.parametrize("experiment", ["moments", "tail", "reduced-dm"])
    def test_blocks_of_7_rows_equal_the_whole_chunk_path(self, monkeypatch, experiment):
        monkeypatch.setattr(sampling_mod, "_NORM_BLOCK_SCALARS", 7 * 2048)
        self._assert_blocked_equals_whole(monkeypatch, experiment, 2)


class TestStreamMemory:
    """A stream's temporaries are block-sized: one chunk of 32 MB of states
    peaks below 4 MB of traced allocations; what a stream keeps of its states
    is held for at most one chunk at a time."""

    CHUNK_BYTES = 512 * 4096 * 16

    @staticmethod
    def _peak(fn):
        tracemalloc.start()
        try:
            fn()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_moments_chunk(self):
        spec = Spectrum((1.0, 2.0, 3.0), (1366, 1365, 1365))
        assert chunk_layout(512, spec.n) == [512]
        rng = RngSpec(seed=3)
        peak = self._peak(lambda: moment_report_streamed(spec, 1.5, 512, rng, workers=1))
        assert peak < self.CHUNK_BYTES / 8

    def test_oracle_chunk(self):
        spec = spin_spectrum(10)
        assert chunk_layout(2048, spec.n) == [2048]  # 2048 x 1024: the same 32 MB

        def one_chunk():
            with pytest.warns(LowAcceptanceWarning):
                oracle_manifold_sample(spec, 3.0, None, 10**6, 2048, RngSpec(seed=5),
                                       proposal="gaussian", workers=1)

        assert self._peak(one_chunk) < self.CHUNK_BYTES / 8

    def test_reduced_dm_holds_one_chunk_of_reduced_states(self):
        # 16 x 16: a chunk is 8192 states, and its reduced states take
        # 8192 x 16 x 16 complex, the same 32 MB; they are held in blocks and
        # then joined to be summed, so a peak below 2.5 chunks means that no
        # more than one chunk's are held at a time, whatever the count
        bs = BipartiteSpectrum((1.0,) * 8 + (2.0,) * 8, (0.0,) * 16)
        assert chunk_layout(20000, bs.dim_a * bs.dim_b) == [8192, 8192, 3616]
        peak = self._peak(
            lambda: reduced_dm_report(bs, 1.3, 2.0, 20000, RngSpec(seed=9), workers=1)
        )
        assert peak < 2.5 * self.CHUNK_BYTES


class TestOrderedStream:
    def test_results_arrive_in_item_order(self):
        def fn(x):
            time.sleep(0.002 * (3 - x % 3))  # later items tend to finish first
            return x * x

        assert list(_map_ordered(fn, range(12), 3)) == [x * x for x in range(12)]

    def test_never_more_threads_than_items(self):
        threads = set()

        def fn(x):
            threads.add(threading.get_ident())
            return x

        assert list(_map_ordered(fn, [7], 3)) == [7]
        assert threads == {threading.get_ident()}  # one item runs inline
        threads.clear()
        assert list(_map_ordered(fn, [1, 2], 3)) == [1, 2]
        assert 1 <= len(threads) <= 2

    def test_early_stop_waits_for_running_items(self):
        started, finished = [], []

        def fn(x):
            started.append(x)
            time.sleep(0.01)
            finished.append(x)
            return x

        with closing(_map_ordered(fn, range(50), 2)) as stream:
            for x in stream:
                if x == 3:
                    break
        assert sorted(started) == sorted(finished)
        assert max(started) <= 3 + 1  # at most workers - 1 items past the last taken



class TestSphere:
    def test_row_blocks_give_the_whole_chunk_normalization(self, monkeypatch):
        # 2 x 2100 reals per row: chunks of 998 and 102 states in blocks of 7
        # rows, so each chunk ends in a short block
        n, count = 2100, 1100
        monkeypatch.setattr(sampling_mod, "_NORM_BLOCK_SCALARS", 7 * 2 * n)
        rng = RngSpec(seed=8)
        layout = chunk_layout(count, n)
        assert layout == [998, 102]
        want = []
        for chunk, size in enumerate(layout):
            z = rng.generator(chunk).standard_normal((size, n, 2)).view(np.complex128)[..., 0]
            want.append(z / np.linalg.norm(z, axis=1)[:, None])
        got = sample_sphere(n, count, rng).states
        assert got.tobytes() == np.concatenate(want).tobytes()

    def test_draw_sees_at_most_one_block(self, monkeypatch):
        rows = []

        def spy(gen, out):
            rows.append(out.shape[0])
            return _complex_normals(gen, out)

        monkeypatch.setattr(sampling_mod, "_complex_normals", spy)
        sample_sphere(900, 3000, RngSpec(seed=9))
        # chunks of 2330 and 670 states, blocks of 72
        assert max(rows) == sampling_mod._block_rows(900) == 72
        assert sum(rows) == 3000
        assert len(rows) == 33 + 10

    def test_one_chunk_peaks_below_one_and_a_half_batches(self):
        # 2330 x 900 is exactly one chunk; a chunk-sized norm temporary would
        # add at least one more batch
        count, n = 2330, 900
        assert chunk_layout(count, n) == [count]
        tracemalloc.start()
        try:
            batch = sample_sphere(n, count, RngSpec(seed=10))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * batch.states.nbytes

    def test_unit_norms(self):
        batch = sample_sphere(16, 500, RngSpec(seed=2))
        norms = np.linalg.norm(batch.states, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_component_symmetry(self):
        n = 64
        batch = sample_sphere(n, 20000, RngSpec(seed=3))
        p = np.abs(batch.states) ** 2
        mean, se = weighted_mean_and_error(p[:, 0])
        assert abs(mean - 1.0 / n) <= 5 * se

    def test_energy_mean_is_the_arithmetic_mean(self):
        n = 64
        levels = np.linspace(-1.0, 3.0, n)
        batch = sample_sphere(n, 20000, RngSpec(seed=4))
        energies = (np.abs(batch.states) ** 2) @ levels
        mean, se = weighted_mean_and_error(energies)
        assert abs(mean - levels.mean()) <= 5 * se


class TestGaussianEnsemble:
    def test_norm_expectation_is_one(self):
        spec = Spectrum(tuple(np.linspace(0.5, 2.5, 256)))
        batch = sample_gaussian_ensemble(spec, 1.0, 20000, RngSpec(seed=6))
        norm2 = np.sum(np.abs(batch.states) ** 2, axis=1)
        mean, se = weighted_mean_and_error(norm2)
        assert abs(mean - 1.0) <= 5 * se

    def test_shifted_energy_moments(self):
        spec = Spectrum((1.0, 2.0, 3.0), (170, 171, 171))  # n = 512
        frame = harmonic_frame(spec, 1.5)
        batch = sample_gaussian_ensemble(spec, 1.5, 30000, RngSpec(seed=7))
        levels = np.repeat(frame.shifted_levels, frame.base.degeneracies)
        hq = (np.abs(batch.states) ** 2) @ levels
        mean, se = weighted_mean_and_error(hq)
        assert abs(mean - frame.e_prime) <= 5 * se
        var_ref = frame.e_prime**2 / frame.dim
        assert abs(hq.var(ddof=1) / var_ref - 1.0) < 0.1

    def test_per_component_second_moments(self):
        n = 64
        spec = Spectrum(tuple(np.linspace(1.0, 3.0, n)))
        frame = harmonic_frame(spec, 1.6)
        batch = sample_gaussian_ensemble(spec, 1.6, 20000, RngSpec(seed=8))
        p = np.abs(batch.states) ** 2
        expected = frame.e_prime / (n * frame.shifted_levels)
        for k in range(n):
            mean, se = weighted_mean_and_error(p[:, k])
            assert abs(mean - expected[k]) <= 5 * se

    def test_all_equal_levels_reduce_to_sphere_statistics(self):
        spec = Spectrum((2.0,), (32,))
        batch = sample_gaussian_ensemble(spec, 2.0, 20000, RngSpec(seed=9))  # zero shift
        psi = batch.states / np.linalg.norm(batch.states, axis=1, keepdims=True)
        p = np.abs(psi) ** 2
        mean, se = weighted_mean_and_error(p[:, 0])
        assert abs(mean - 1.0 / 32) <= 5 * se
        # unnormalized norms fluctuate around one with variance 1/n
        norm2 = np.sum(np.abs(batch.states) ** 2, axis=1)
        assert abs(norm2.var(ddof=1) / (1.0 / 32) - 1.0) < 0.1


class TestGradientNorm:
    def test_eigenvector_gives_zero(self):
        state = np.zeros(3, dtype=complex)
        state[1] = 1.0
        assert gradient_norm(SPEC123, state) == 0.0

    def test_equal_superposition_hand_value(self):
        spec = Spectrum((0.0, 2.0))
        state = np.array([1.0, 1.0]) / math.sqrt(2.0)
        assert gradient_norm(spec, state) == pytest.approx(2.0, abs=1e-12)

    def test_phase_invariance(self):
        state = np.array([0.5, 0.5, math.sqrt(0.5)], dtype=complex)
        phased = state * np.exp(1j * np.array([0.3, -1.2, 2.5]))
        assert gradient_norm(SPEC123, state) == pytest.approx(
            gradient_norm(SPEC123, phased), abs=1e-12
        )

    def test_rejects_unnormalized(self):
        with pytest.raises(DomainError):
            gradient_norm(SPEC123, np.array([1.0, 1.0, 0.0]))

    def test_respects_degeneracies(self):
        spec = Spectrum((0.0, 2.0), (2, 1))
        state = np.array([0.5, 0.5, math.sqrt(0.5)], dtype=complex)
        p = np.abs(state) ** 2
        e1 = p @ np.array([0.0, 0.0, 2.0])
        e2 = p @ np.array([0.0, 0.0, 4.0])
        assert gradient_norm(spec, state) == pytest.approx(2 * math.sqrt(e2 - e1 * e1))

    def test_matches_the_scalar_formula_exactly(self):
        spec = Spectrum((0.3, 1.1, 2.9), (3, 2, 4))
        levels = spec.expand()
        gen = np.random.default_rng(41)
        for _ in range(50):
            psi = gen.standard_normal(9) + 1j * gen.standard_normal(9)
            psi /= np.linalg.norm(psi)
            p = np.abs(psi) ** 2
            e1 = float(_dot(p, levels))
            e2 = float(_dot(p, levels ** 2))
            assert gradient_norm(spec, psi) == 2 * math.sqrt(max(e2 - e1 * e1, 0.0))


class TestOracle:
    def test_two_distinct_levels_have_constant_weights(self):
        # the gradient norm is exactly constant on the manifold itself; at
        # finite shell width the weights spread by O(eta) and shrink with it
        spec = Spectrum((0.0, 1.0), (3, 3))
        wide = oracle_manifold_sample(spec, 0.4, 0.02, 400, 10**6, RngSpec(seed=10))
        narrow = oracle_manifold_sample(spec, 0.4, 0.002, 400, 10**6, RngSpec(seed=10))
        for batch, eta in ((wide, 0.02), (narrow, 0.002)):
            spread = float(np.ptp(batch.weights) / batch.weights.mean())
            assert spread < 2.0 * eta  # derivative of 2 sqrt(q(1-q)) is ~0.4 here
        assert np.allclose(narrow.weights, narrow.weights[0], rtol=3e-3)

    def test_all_equal_spectrum_is_degenerate(self):
        with pytest.raises(DomainError):
            oracle_manifold_sample(Spectrum((1.0, 1.0)), 1.0, 0.01, 10, 1000, RngSpec(seed=1))

    def test_energy_domain(self):
        with pytest.raises(DomainError):
            oracle_manifold_sample(SPEC123, 3.5, 0.01, 10, 1000, RngSpec(seed=1))

    def test_shell_constrains_accepted_states(self):
        eta = 0.05
        batch = oracle_manifold_sample(SPEC123, 1.5, eta, 200, 10**6, RngSpec(seed=11))
        levels = SPEC123.expand()
        energies = (np.abs(batch.states) ** 2) @ levels
        assert np.max(np.abs(energies - 1.5)) < eta

    def test_low_acceptance_warning_and_partial_batch(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            batch = oracle_manifold_sample(
                SPEC123, 1.5, 0.01, 10**6, 2000, RngSpec(seed=12)
            )
        assert batch.count < 10**6
        assert any(issubclass(w.category, LowAcceptanceWarning) for w in caught)
        assert 0.0 < batch.meta["acceptance_rate"] <= 1.0

    def test_deterministic(self):
        a = oracle_manifold_sample(SPEC123, 1.5, 0.03, 300, 10**6, RngSpec(seed=13))
        b = oracle_manifold_sample(SPEC123, 1.5, 0.03, 300, 10**6, RngSpec(seed=13))
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.weights, b.weights)

    def test_uniform_proposal_matches_quadrature(self):
        # independent fiber-volume quadrature of the manifold moments
        want = three_level_manifold_moments((1.0, 2.0, 3.0), 1.5)
        batch = oracle_manifold_sample(
            SPEC123, 1.5, default_shell_width(SPEC123), 8000, 10**7, RngSpec(seed=14)
        )
        p = np.abs(batch.states) ** 2
        for k in range(3):
            mean, se = weighted_mean_and_error(p[:, k], batch.weights)
            assert abs(mean - want[k]) <= 5 * se

    def test_gaussian_proposal_matches_quadrature(self):
        want = three_level_manifold_moments((1.0, 2.0, 3.0), 1.5)
        batch = oracle_manifold_sample(
            SPEC123,
            1.5,
            default_shell_width(SPEC123),
            8000,
            10**7,
            RngSpec(seed=15),
            proposal="gaussian",
        )
        assert batch.meta["weight_scale"] == "relative"
        p = np.abs(batch.states) ** 2
        for k in range(3):
            mean, se = weighted_mean_and_error(p[:, k], batch.weights)
            assert abs(mean - want[k]) <= 5 * se

    def test_asymmetric_spectrum_against_quadrature(self):
        levels = (0.4, 1.1, 2.9)
        spec = Spectrum(levels)
        want = three_level_manifold_moments(levels, 0.9)
        batch = oracle_manifold_sample(
            spec, 0.9, default_shell_width(spec), 6000, 10**7, RngSpec(seed=16)
        )
        p = np.abs(batch.states) ** 2
        for k in range(3):
            mean, se = weighted_mean_and_error(p[:, k], batch.weights)
            assert abs(mean - want[k]) <= 5 * se

    @pytest.mark.parametrize("proposal", ["uniform", "gaussian"])
    def test_none_means_the_default_width_and_budget(self, proposal):
        spec = Spectrum((1.0, 2.0, 3.0), (20, 20, 20))
        count = 150
        defaults = oracle_manifold_sample(
            spec, 1.9, None, count, None, RngSpec(seed=17), proposal=proposal
        )
        explicit = oracle_manifold_sample(
            spec, 1.9, default_shell_width(spec), count, 200 * count, RngSpec(seed=17),
            proposal=proposal,
        )
        assert defaults.states.tobytes() == explicit.states.tobytes()
        assert defaults.weights.tobytes() == explicit.weights.tobytes()
        assert defaults.meta == explicit.meta

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            oracle_manifold_sample(SPEC123, 1.5, -0.1, 10, 100, RngSpec(seed=1))
        with pytest.raises(DomainError):
            oracle_manifold_sample(SPEC123, 1.5, 0.1, 0, 100, RngSpec(seed=1))
        with pytest.raises(DomainError):
            oracle_manifold_sample(SPEC123, 1.5, 0.1, 10, 100, RngSpec(seed=1), proposal="mcmc")


class TestOccupationReference:
    """The log-space quadrature of the 3-level block occupations, the exact
    reference a level sampler is to be checked against."""

    @pytest.mark.parametrize("degeneracies,energy,want,digits", [
        ((1, 1, 1), 1.5, (0.6357470332, 0.2285059336, 0.1357470332), 10),
        ((3, 2, 4), 1.7, (0.55229, 0.19542, 0.25229), 5),
        # deep in the large-d limit, near the harmonic estimate 0.63714594
        ((10**5,) * 3, 1.5, (0.63714592, 0.22570817, 0.13714592), 8),
    ])
    def test_stated_values(self, degeneracies, energy, want, digits):
        got = three_level_occupations((1.0, 2.0, 3.0), degeneracies, energy)
        assert np.round(got, digits).tolist() == list(want)
        assert got.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("levels,energy", [((1.0, 2.0, 3.0), 1.5), ((0.4, 1.1, 2.9), 0.9)])
    def test_degeneracy_one_is_the_fiber_volume_quadrature(self, levels, energy):
        # the two references share no formula: a coarea factor on the simplex
        # against a torus volume times an arc length in amplitude space
        got = three_level_occupations(levels, (1, 1, 1), energy)
        assert got == pytest.approx(three_level_manifold_moments(levels, energy), abs=1e-10)


class TestOracleWorkers:
    """The oracle's batch, weights and meta do not depend on ``workers``."""

    SPEC = Spectrum((1.0, 2.0, 3.0), (20, 20, 20))  # chunks of 34952 proposals

    def _draws(self, monkeypatch, **kwargs):
        chunks = []

        def spy(spec, chunk):
            chunks.append(chunk)
            return GENERATOR(spec, chunk)

        monkeypatch.setattr(RngSpec, "generator", spy)
        return oracle_manifold_sample(self.SPEC, 1.8, rng=RngSpec(seed=31), **kwargs), chunks

    def _assert_same(self, a, b):
        assert a.states.tobytes() == b.states.tobytes()
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.meta == b.meta

    @pytest.mark.parametrize("proposal,count", [("uniform", 1500), ("gaussian", 8000)])
    def test_count_filled_mid_layout(self, monkeypatch, proposal, count):
        per = chunk_layout(10**9, self.SPEC.n)[0]
        kwargs = dict(eta=0.02, count=count, max_draws=4 * per, proposal=proposal)
        one, chunks_one = self._draws(monkeypatch, workers=1, **kwargs)
        two, chunks_two = self._draws(monkeypatch, workers=2, **kwargs)
        assert chunks_one == [0, 1]  # filled in the second of four chunks
        assert sorted(chunks_two)[:2] == [0, 1]  # chunks drawn ahead are dropped
        assert one.count == count
        self._assert_same(one, two)

    @pytest.mark.parametrize("proposal", ["uniform", "gaussian"])
    def test_partial_batch_warns_alike(self, monkeypatch, proposal):
        per = chunk_layout(10**9, self.SPEC.n)[0]
        kwargs = dict(eta=0.02, count=10**6, max_draws=2 * per + 100, proposal=proposal)
        batches = []
        for workers in (1, 2):
            with pytest.warns(LowAcceptanceWarning):
                batch, chunks = self._draws(monkeypatch, workers=workers, **kwargs)
            assert sorted(chunks) == [0, 1, 2]
            batches.append(batch)
        assert batches[0].count < 10**6
        self._assert_same(*batches)

    @pytest.mark.parametrize("proposal", ["uniform", "gaussian"])
    def test_no_acceptances_raise_alike(self, monkeypatch, proposal):
        per = chunk_layout(10**9, self.SPEC.n)[0]
        kwargs = dict(eta=1e-12, count=10, max_draws=2 * per + 100, proposal=proposal)
        messages = []
        for workers in (1, 2):
            with pytest.raises(DomainError, match="no acceptances") as exc:
                self._draws(monkeypatch, workers=workers, **kwargs)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]

    def test_gaussian_proposals_are_drawn_by_gaussian_chunk(self, monkeypatch):
        """Every Gaussian proposal block comes from ``gaussian_chunk``: the
        blocks' rows add up to the draws the oracle reports, and they are each
        chunk's normals times sigma_k = sqrt(E'/(2 n E'_k)).  The uniform
        proposal never calls it."""
        blocks = []

        def spy(scale, gen, out):
            psi = gaussian_chunk(scale, gen, out)
            blocks.append(psi.copy())
            return psi

        monkeypatch.setattr(sampling_mod, "gaussian_chunk", spy)
        n = self.SPEC.n
        rng = RngSpec(seed=31)
        max_draws = chunk_layout(10**9, n)[0] + 100
        with pytest.warns(LowAcceptanceWarning, match=f" in {max_draws} draws "):
            oracle_manifold_sample(self.SPEC, 1.8, 0.02, 10**6, max_draws, rng,
                                   proposal="gaussian", workers=1)
        assert len(blocks) > 2
        assert sum(b.shape[0] for b in blocks) == max_draws
        frame = harmonic_frame(self.SPEC, 1.8)
        sig = np.sqrt(frame.e_prime / (2.0 * n * frame.expanded_levels))
        want = [
            GENERATOR(rng, i).standard_normal((size, n, 2)).view(np.complex128)[..., 0] * sig
            for i, size in enumerate(chunk_layout(max_draws, n))
        ]
        assert np.concatenate(blocks).tobytes() == np.concatenate(want).tobytes()
        blocks.clear()
        oracle_manifold_sample(self.SPEC, 1.8, 0.02, 100, None, rng, workers=1)
        assert blocks == []


SPEC60 = Spectrum((1.0, 2.0, 3.0), (20, 20, 20))  # oracle chunks of 34952 proposals
# (spectrum, energy, oracle arguments, proposals)
SCREEN_CASES = {
    "n60": (SPEC60, 1.8, dict(eta=0.02, count=1500), ("uniform", "gaussian")),
    "negative-levels": (
        Spectrum((-2.0, -0.5, 1.0, 4.0), (5, 7, 3, 9)), -0.3, dict(count=300),
        ("uniform", "gaussian"),
    ),
    "degenerate-ground": (
        Spectrum((0.0, 1.0, 2.5), (6, 2, 3)), 0.7, dict(count=800), ("uniform", "gaussian"),
    ),
    # chunks of 34952, 34952 and 10096 proposals; the uniform batch is partial
    "short-last-chunk": (
        SPEC60, 1.8, dict(eta=0.02, count=5000, max_draws=80000), ("uniform", "gaussian"),
    ),
    # the energies are off by ulps of 1e6; the harmonic solve needed by the
    # Gaussian proposal does not converge at this offset
    "offset-1e6": (Spectrum((1e6 + 1, 1e6 + 2, 1e6 + 3)), 1e6 + 1.5, dict(count=2000),
                   ("uniform",)),
    "offset-1e4": (Spectrum((1e4 + 1, 1e4 + 2, 1e4 + 3)), 1e4 + 1.5, dict(count=2000),
                   ("gaussian",)),
    # the spins-m10 workload's shape: 11 degenerate levels, n = 1024, blocks of 64 rows
    "spins-m10": (spin_spectrum(10), 3.0, dict(count=20), ("gaussian",)),
}


class TestShellScreen:
    """The exact test of each row block gives the bits of the full-chunk
    reference screen."""

    @staticmethod
    def _sample(case, proposal, workers):
        spec, energy, kwargs, _ = SCREEN_CASES[case]
        kwargs = {"eta": None, "max_draws": None, **kwargs}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            batch = oracle_manifold_sample(
                spec, energy, rng=RngSpec(seed=41), proposal=proposal, workers=workers, **kwargs
            )
        return batch, [(w.category, str(w.message)) for w in caught]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "case,proposal", [(c, p) for c, v in SCREEN_CASES.items() for p in v[3]]
    )
    def test_bit_equal_to_the_full_chunk_screen(self, monkeypatch, case, proposal, workers):
        batch, warned = self._sample(case, proposal, workers)
        monkeypatch.setattr(sampling_mod, "_ShellScreen", ReferenceShellScreen)
        monkeypatch.setattr(sampling_mod, "_NORM_BLOCK_SCALARS", WHOLE_CHUNK_BLOCKS)
        want, want_warned = self._sample(case, proposal, workers)
        assert batch.states.tobytes() == want.states.tobytes()
        assert batch.weights.tobytes() == want.weights.tobytes()
        assert batch.meta == want.meta
        assert warned == want_warned
        if case == "short-last-chunk" and proposal == "uniform":
            assert warned and warned[0][0] is LowAcceptanceWarning

    @pytest.mark.parametrize("case,proposal", [("n60", "uniform"), ("n60", "gaussian"),
                                               ("short-last-chunk", "uniform")])
    def test_blocks_of_7_rows_equal_the_full_chunk_screen(self, monkeypatch, case, proposal):
        rows = []

        def spy(gen, out):
            rows.append(out.shape[0])
            return _complex_normals(gen, out)

        monkeypatch.setattr(sampling_mod, "_complex_normals", spy)
        monkeypatch.setattr(sampling_mod, "_NORM_BLOCK_SCALARS", 7 * 2 * SCREEN_CASES[case][0].n)
        batch, warned = self._sample(case, proposal, 2)
        assert max(rows) == 7
        monkeypatch.setattr(sampling_mod, "_ShellScreen", ReferenceShellScreen)
        monkeypatch.setattr(sampling_mod, "_NORM_BLOCK_SCALARS", WHOLE_CHUNK_BLOCKS)
        want, want_warned = self._sample(case, proposal, 2)
        assert batch.states.tobytes() == want.states.tobytes()
        assert batch.weights.tobytes() == want.weights.tobytes()
        assert batch.meta == want.meta
        assert warned == want_warned


class TestBatchInvariants:
    def test_states_are_read_only(self):
        batch = sample_sphere(4, 10, RngSpec(seed=17))
        with pytest.raises(ValueError):
            batch.states[0, 0] = 0.0

    def test_meta_records_the_sampler(self):
        frame = harmonic_frame(SPEC123, 1.5)
        batch = sample_gaussian_ensemble(SPEC123, 1.5, 10, RngSpec(seed=18))
        assert batch.meta["kind"] == "gaussian"
        assert batch.meta["normalized"] is False
        assert batch.meta["shift"] == frame.shift


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: sampling_mod.SampleBatch(np.zeros(3), None), r"states must be a \(count, n\)"),
        (lambda: sampling_mod.SampleBatch(np.array([[1.0, np.nan]]), None),
         "states must be finite"),
        (lambda: sampling_mod.SampleBatch(np.ones((2, 3)), np.ones(3)), "weights length"),
        (lambda: sampling_mod.SampleBatch(np.ones((2, 3)), np.array([1.0, 0.0])),
         "weights must be positive and finite"),
        (lambda: sampling_mod.SampleBatch(np.ones((2, 3)), np.array([1.0, np.inf])),
         "weights must be positive and finite"),
        (lambda: chunk_layout(-1, 3), "count must be nonnegative"),
        (lambda: sample_sphere(0, 5, RngSpec(seed=1)), "^dimension must be positive$"),
        (lambda: gradient_norm(SPEC123, np.array([0.6, 0.8])),
         "state has dimension 2, spectrum has 3"),
        (lambda: oracle_manifold_sample(SPEC123, 1.5, 0.1, 5, 0, RngSpec(seed=1)),
         "max_draws must be positive"),
    ],
    ids=["states-1d", "states-nan", "weights-length", "weights-zero", "weights-inf",
         "negative-count", "sphere-dimension", "gradient-dimension", "max-draws"],
)
def test_error_paths(call, message):
    with pytest.raises(DomainError, match=message):
        call()
