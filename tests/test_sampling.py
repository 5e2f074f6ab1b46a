import math
import os
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing

import numpy as np
import pytest

import mee.sampling as sampling_mod

from mee import (
    DomainError,
    EnergyFrame,
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
from mee.experiments import _gaussian_stream, moment_report_streamed
from mee.sampling import (
    _chunk_task,
    _complex_normals,
    _map_ordered,
    _row_norms,
    chunk_layout,
    gaussian_chunk,
)
from conftest import three_level_manifold_moments, weighted_mean_and_error

SPEC123 = Spectrum((1.0, 2.0, 3.0))


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
        batch = sample_gaussian_ensemble(frame, 2000, rng)
        (streamed,) = _gaussian_stream(frame, 2000, rng, lambda s: (s.copy(),), 1)
        assert np.array_equal(batch.states, streamed)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_stream_concatenates_each_array_in_chunk_order(self, workers):
        frame = harmonic_frame(Spectrum((1.0, 2.0, 3.0), (300, 300, 300)), 1.5)
        rng = RngSpec(seed=6)
        count = 5000
        layout = chunk_layout(count, frame.dim)
        assert len(layout) == 3
        states = sample_gaussian_ensemble(frame, count, rng).states
        firsts, totals = _gaussian_stream(
            frame, count, rng, lambda s: (s[:, 0].copy(), s.sum(axis=0)[None]), workers
        )
        assert np.array_equal(firsts, states[:, 0])
        edges = np.cumsum([0, *layout])
        want = [states[lo:hi].sum(axis=0) for lo, hi in zip(edges[:-1], edges[1:])]
        assert totals.shape == (3, frame.dim)
        assert totals.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("count", [0, -1])
    def test_stream_rejects_an_empty_sample_before_any_draw(self, monkeypatch, count):
        def forbidden(*args, **kwargs):
            raise AssertionError("the stream drew")

        monkeypatch.setattr(sampling_mod, "gaussian_chunk", forbidden)
        frame = harmonic_frame(SPEC123, 1.5)
        with pytest.raises(DomainError, match="^cannot estimate from an empty sample$"):
            _gaussian_stream(frame, count, RngSpec(seed=7), lambda s: (s.copy(),), 1)

    def test_same_spec_same_batch(self):
        frame = harmonic_frame(SPEC123, 1.5)
        a = sample_gaussian_ensemble(frame, 500, RngSpec(seed=1, stream=2))
        b = sample_gaussian_ensemble(frame, 500, RngSpec(seed=1, stream=2))
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
        got = sample_gaussian_ensemble(frame, count, rng).states
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
        for i, size in enumerate(layout):
            fresh = gaussian_chunk(frame, rng, i, size, np.empty((size, frame.dim, 2)))
            into = gaussian_chunk(frame, rng, i, size, buf)
            assert np.shares_memory(into, buf)
            assert into.shape == fresh.shape
            assert into.tobytes() == fresh.tobytes()
            raw = _complex_normals(rng, i, size, frame.dim, buf)
            alone = _complex_normals(rng, i, size, frame.dim, np.empty((size, frame.dim, 2)))
            assert raw.tobytes() == alone.tobytes()

    def test_one_buffer_per_thread(self):
        task = _chunk_task(lambda chunk, size, out: out, lambda buf: buf, [5, 5, 2], 3)
        mine = task((0, 5))
        assert mine.shape == (5, 3, 2) and mine.dtype == np.float64
        assert task((1, 5)) is mine
        with ThreadPoolExecutor(max_workers=1) as pool:
            other = pool.submit(task, (2, 2)).result()
        assert other is not mine and not np.shares_memory(other, mine)


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



@pytest.fixture
def blas_threads():
    """The OpenBLAS thread-count getter, with the count set to 2 for the test
    so a limit of 1 shows; the count found is restored afterwards."""
    api = sampling_mod._find_openblas()
    if api is None:
        pytest.skip("NumPy links no OpenBLAS whose thread count can be read")
    get, set_ = api
    before = get()
    set_(2)
    yield get
    set_(before)


class TestBlasThreadLimit:
    def test_threaded_tasks_see_one_blas_thread(self, blas_threads):
        assert list(_map_ordered(lambda x: blas_threads(), range(8), 2)) == [1] * 8
        assert blas_threads() == 2

    def test_one_worker_leaves_the_count(self, blas_threads):
        assert list(_map_ordered(lambda x: blas_threads(), range(4), 1)) == [2] * 4

    def test_restored_after_early_close(self, blas_threads):
        with closing(_map_ordered(lambda x: x, range(50), 2)) as stream:
            for x in stream:
                assert blas_threads() == 1
                if x == 3:
                    break
        assert blas_threads() == 2

    def test_restored_after_a_task_raises(self, blas_threads):
        def fn(x):
            if x == 5:
                raise ValueError("task failed")
            return x

        with pytest.raises(ValueError, match="task failed"):
            list(_map_ordered(fn, range(10), 2))
        assert blas_threads() == 2

    def test_nested_streams_restore_at_the_last_exit(self, blas_threads):
        def outer(x):
            inner = list(_map_ordered(lambda y: blas_threads(), range(3), 2))
            return inner + [blas_threads()]

        results = list(_map_ordered(outer, range(4), 2))
        assert results == [[1, 1, 1, 1]] * 4
        assert blas_threads() == 2

    def test_overlapping_streams_restore_at_the_last_exit(self, blas_threads):
        a = _map_ordered(lambda x: x, range(4), 2)
        b = _map_ordered(lambda x: x, range(4), 2)
        assert next(a) == 0 and next(b) == 0
        a.close()
        assert blas_threads() == 1
        b.close()
        assert blas_threads() == 2

    def test_concurrent_entries_stress(self, blas_threads):
        # 4 threads entering and leaving the limit on a short switch interval:
        # a lost update of the depth count would restore 2 while a thread is
        # inside, or leave 1 behind.
        limit = sampling_mod._ONE_BLAS_THREAD
        seen, errors = [], []

        def enter_and_leave():
            try:
                for _ in range(2000):
                    with limit:
                        seen.append(blas_threads())
            except Exception as exc:  # reported below, after the join
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=enter_and_leave) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not errors
        assert seen == [1] * 8000
        assert blas_threads() == 2

    @pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="no /proc/self/maps")
    def test_found_among_the_mapped_libraries(self, blas_threads, monkeypatch):
        # without a wheel's numpy.libs directory the loaded library is found
        # through /proc/self/maps, and sets the count the direct pair reads
        real = os.listdir

        def listdir(path):
            if os.path.basename(os.path.normpath(path)) == "numpy.libs":
                raise FileNotFoundError(path)
            return real(path)

        monkeypatch.setattr(os, "listdir", listdir)
        api = sampling_mod._find_openblas()
        assert api is not None
        get, set_ = api
        set_(1)
        assert blas_threads() == 1
        set_(2)
        assert get() == 2

    def test_without_openblas_the_stream_runs_unchanged(self, monkeypatch):
        frame = harmonic_frame(Spectrum((1.0, 2.0, 3.0), (300, 300, 300)), 1.5)
        rng = RngSpec(seed=47)
        limited = moment_report_streamed(frame, 5000, rng, workers=2)
        monkeypatch.setattr(sampling_mod, "_find_openblas", lambda: None)
        monkeypatch.setattr(sampling_mod, "_ONE_BLAS_THREAD", sampling_mod._BlasThreadLimit())
        assert moment_report_streamed(frame, 5000, rng, workers=2) == limited
        assert sampling_mod._ONE_BLAS_THREAD._api is None


class TestSphere:
    def test_row_norms_are_the_whole_batch_norm(self):
        # 2 x 2100 reals per row: 31 rows per block, so 4 full blocks and a short one
        z = RngSpec(seed=8).generator(0).standard_normal((140, 2100, 2)).view(np.complex128)
        z = z[..., 0]
        assert _row_norms(z).tobytes() == np.linalg.norm(z, axis=1).tobytes()

    def test_rows_are_normalized_through_row_norms(self, monkeypatch):
        rows = []

        def counted(states):
            rows.append(states.shape[0])
            return _row_norms(states)

        monkeypatch.setattr(sampling_mod, "_row_norms", counted)
        sample_sphere(900, 3000, RngSpec(seed=9))
        assert rows == chunk_layout(3000, 900)

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
    def test_requires_harmonic_frame(self):
        frame = EnergyFrame(SPEC123, 1.5, 0.0)  # unsolved shift
        with pytest.raises(DomainError):
            sample_gaussian_ensemble(frame, 10, RngSpec(seed=1))

    def test_requires_full_dimension_frame(self):
        frame = harmonic_frame(SPEC123, 1.5)
        scaled = EnergyFrame(SPEC123, 1.5, frame.shift, dim=300)
        with pytest.raises(DomainError):
            sample_gaussian_ensemble(scaled, 10, RngSpec(seed=1))

    def test_norm_expectation_is_one(self):
        spec = Spectrum(tuple(np.linspace(0.5, 2.5, 256)))
        frame = harmonic_frame(spec, 1.0)
        batch = sample_gaussian_ensemble(frame, 20000, RngSpec(seed=6))
        norm2 = np.sum(np.abs(batch.states) ** 2, axis=1)
        mean, se = weighted_mean_and_error(norm2)
        assert abs(mean - 1.0) <= 5 * se

    def test_shifted_energy_moments(self):
        spec = Spectrum((1.0, 2.0, 3.0), (170, 171, 171))  # n = 512
        frame = harmonic_frame(spec, 1.5)
        batch = sample_gaussian_ensemble(frame, 30000, RngSpec(seed=7))
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
        batch = sample_gaussian_ensemble(frame, 20000, RngSpec(seed=8))
        p = np.abs(batch.states) ** 2
        expected = frame.e_prime / (n * frame.shifted_levels)
        for k in range(n):
            mean, se = weighted_mean_and_error(p[:, k])
            assert abs(mean - expected[k]) <= 5 * se

    def test_all_equal_levels_reduce_to_sphere_statistics(self):
        spec = Spectrum((2.0,), (32,))
        frame = harmonic_frame(spec, 2.0)  # zero shift, already harmonic
        batch = sample_gaussian_ensemble(frame, 20000, RngSpec(seed=9))
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
            e1 = float(np.dot(p, levels))
            e2 = float(np.dot(p, levels ** 2))
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


class TestOracleWorkers:
    """The oracle's batch, weights and meta do not depend on ``workers``."""

    SPEC = Spectrum((1.0, 2.0, 3.0), (20, 20, 20))  # chunks of 34952 proposals

    def _draws(self, monkeypatch, **kwargs):
        chunks = []

        def spy(*args, **kw):
            chunks.append(args[1])
            return _complex_normals(*args, **kw)

        monkeypatch.setattr(sampling_mod, "_complex_normals", spy)
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


class TestBatchInvariants:
    def test_states_are_read_only(self):
        batch = sample_sphere(4, 10, RngSpec(seed=17))
        with pytest.raises(ValueError):
            batch.states[0, 0] = 0.0

    def test_meta_records_the_sampler(self):
        frame = harmonic_frame(SPEC123, 1.5)
        batch = sample_gaussian_ensemble(frame, 10, RngSpec(seed=18))
        assert batch.meta["kind"] == "gaussian"
        assert batch.meta["normalized"] is False
        assert batch.meta["shift"] == frame.shift
