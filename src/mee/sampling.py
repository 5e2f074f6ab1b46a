"""Samplers: Gaussian ensemble approximation, uniform sphere, exact shell oracle.

Reproducibility contract: a batch is a pure function of (seed, stream, count)
plus the sampler parameters.  Generation is split into fixed-size chunks
whose RNG streams are derived from (seed, stream, chunk_index), so the same
batch is produced bit-for-bit regardless of how many workers consume the
chunks or whether the batch is materialized or streamed.
"""
from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import threading
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import DomainError, LowAcceptanceWarning
from .spectrum import EnergyFrame, Spectrum, harmonic_frame

__all__ = [
    "RngSpec",
    "SampleBatch",
    "chunk_layout",
    "default_shell_width",
    "sample_gaussian_ensemble",
    "sample_sphere",
    "oracle_manifold_sample",
    "gradient_norm",
]

# Scalars (real normal variates) per generation chunk; the layout depends
# only on this constant, count and n, never on worker count.
_CHUNK_SCALARS = 1 << 22
# Real scalars per row block of _row_norms (1 MB of float64).
_NORM_BLOCK_SCALARS = 1 << 17


@dataclass(frozen=True)
class RngSpec:
    """Seed/stream pair naming an independent, reproducible random stream."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        if self.seed < 0 or self.stream < 0:
            raise DomainError("seed and stream must be nonnegative integers")

    def generator(self, chunk: int) -> np.random.Generator:
        # SFC64 is the fastest bulk-normal generator available here; the
        # reproducibility contract lives at the (seed, stream, chunk) level,
        # not in the bit-generator algorithm.
        key = (self.stream, chunk)
        return np.random.Generator(
            np.random.SFC64(np.random.SeedSequence(entropy=self.seed, spawn_key=key))
        )

    def to_json(self) -> dict:
        return {"seed": self.seed, "stream": self.stream}


@dataclass
class SampleBatch:
    """A set of complex state vectors with optional importance weights.

    ``meta`` records the sampler kind and its parameters (spectrum digest,
    energies, shell width, acceptance rate).  Arrays are frozen after
    construction.
    """

    states: np.ndarray
    weights: np.ndarray | None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        states = np.asarray(self.states, dtype=complex)
        if states.ndim != 2:
            raise DomainError("states must be a (count, n) array")
        if not np.all(np.isfinite(states.view(float))):
            raise DomainError("states must be finite")
        states.flags.writeable = False
        self.states = states
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (states.shape[0],):
                raise DomainError("weights length must match the number of states")
            if np.any(w <= 0.0) or not np.all(np.isfinite(w)):
                raise DomainError("weights must be positive and finite")
            w.flags.writeable = False
            self.weights = w

    @property
    def count(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[1]


def spectrum_digest(spectrum: Spectrum) -> str:
    payload = json.dumps(spectrum.to_json(), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def chunk_layout(count: int, n: int) -> list[int]:
    """Chunk sizes (states per chunk) for a batch of ``count`` states in C^n."""
    if count < 0:
        raise DomainError("count must be nonnegative")
    per = max(1, _CHUNK_SCALARS // max(2 * n, 1))
    sizes = [per] * (count // per)
    if count % per:
        sizes.append(count % per)
    return sizes


def _default_workers() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _find_openblas() -> tuple[Callable, Callable] | None:
    """``(get, set)`` of the thread count of the OpenBLAS NumPy loaded, or None.

    Looks in the ``numpy.libs`` directory of a NumPy wheel, or else among the
    libraries this process has mapped; opens only a library already loaded.
    """
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        names = sorted(f for f in os.listdir(libs) if f.startswith("libscipy_openblas"))
        paths = [os.path.join(libs, f) for f in names]
    except OSError:
        paths = []
    if not paths:
        try:
            with open("/proc/self/maps") as maps:
                paths = sorted({ln.split(None, 5)[-1].strip() for ln in maps if "openblas" in ln})
        except OSError:
            pass
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
        except OSError:
            continue
        for prefix in ("scipy_", ""):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    return get, set_
    return None


class _BlasThreadLimit:
    """Context manager holding NumPy's OpenBLAS to one thread.

    Inside a threaded stream the worker threads are the parallelism: an
    OpenBLAS helper thread would busy-wait against them.  The library is
    looked up on the first entry; without one this is a no-op.  Nested or
    concurrent entries share one limit, and the last exit restores the count
    the first entry found, so no BLAS call outside a stream sees the limit
    (a threaded dot product may round differently from a serial one).
    """

    _UNRESOLVED = object()

    def __init__(self):
        self._lock = threading.Lock()
        self._api = self._UNRESOLVED
        self._depth = 0
        self._saved = 0

    def __enter__(self):
        with self._lock:
            if self._api is self._UNRESOLVED:
                self._api = _find_openblas()
            if self._api is not None and self._depth == 0:
                get, set_ = self._api
                self._saved = get()
                set_(1)
            self._depth += 1

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._api is not None and self._depth == 0:
                self._api[1](self._saved)


# One per process, as the OpenBLAS thread count it holds is process-wide.
_ONE_BLAS_THREAD = _BlasThreadLimit()


def _map_ordered(fn: Callable, items: Iterable, workers: int | None = None) -> Iterator:
    """Yield ``fn(item)`` for each item, in item order.

    At most ``workers`` items are in flight, on min(workers, len(items))
    threads (none for one); ``None`` means the CPUs this process may run on.
    Worker count changes scheduling only: results arrive in item order, so
    every reduction over them is fixed.  The consumer may stop early: an item
    starts only once the consumer has taken the result before it, so at most
    ``workers - 1`` items past the last one taken are computed, and closing
    the generator waits for them.  While items run on threads, NumPy's
    OpenBLAS runs on one thread (see :class:`_BlasThreadLimit`).
    """
    items = list(items)
    if workers is None:
        workers = _default_workers()
    workers = min(workers, len(items))
    if workers <= 1:
        yield from map(fn, items)
        return
    with _ONE_BLAS_THREAD, ThreadPoolExecutor(max_workers=workers) as pool:
        running = deque(pool.submit(fn, it) for it in items[:workers])
        try:
            for it in items[workers:]:
                yield running.popleft().result()
                running.append(pool.submit(fn, it))
            while running:
                yield running.popleft().result()
        finally:
            for future in running:
                future.cancel()


def _chunk_task(draw: Callable, reduce: Callable, layout: Sequence[int], n: int) -> Callable:
    """:func:`_map_ordered` task ``(chunk, size) -> reduce(draw(chunk, size, buf))``
    over ``enumerate(layout)``; ``draw`` fills the first ``size`` rows of ``buf``
    as :func:`_complex_normals` does.  Each thread keeps its own ``buf`` while the
    task lives, sized for the first (largest) chunk; ``reduce`` must not keep a view."""
    local = threading.local()

    def task(item: tuple[int, int]):
        chunk, size = item
        buf = getattr(local, "buf", None)
        if buf is None:
            buf = local.buf = np.empty((layout[0], n, 2))
        return reduce(draw(chunk, size, buf))

    return task


def _draw_batch(draw: Callable, count: int, n: int) -> np.ndarray:
    """The (count, n) batch, each chunk of the layout drawn into its own rows."""
    states = np.empty((count, n), dtype=complex)
    rows = states.view(np.float64).reshape(count, n, 2)
    for chunk, size in enumerate(chunk_layout(count, n)):
        draw(chunk, size, rows)
        rows = rows[size:]
    return states


def _row_norms(states: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(states, axis=1)`` bit for bit, over row blocks, so its
    two complex temporaries are block-sized instead of chunk-sized."""
    rows = max(1, _NORM_BLOCK_SCALARS // max(2 * states.shape[1], 1))
    norms = np.empty(states.shape[0])
    for lo in range(0, states.shape[0], rows):
        norms[lo : lo + rows] = np.linalg.norm(states[lo : lo + rows], axis=1)
    return norms


def default_shell_width(spectrum: Spectrum) -> float:
    """Shell half-width 0.02 (E_max - E_min)/sqrt(n); the on-sphere energy
    spread scales like 1/sqrt(n), keeping the acceptance rate workable."""
    return 0.02 * (spectrum.e_max - spectrum.e_min) / math.sqrt(spectrum.n)


def _gaussian_sigmas(frame: EnergyFrame) -> np.ndarray:
    """Per-component standard deviation sqrt(E'/(2 n E'_k)) for Re and Im parts."""
    return np.sqrt(frame.e_prime / (2.0 * frame.dim * frame.expanded_levels))


def _complex_normals(rng: RngSpec, chunk: int, size: int, n: int, out: np.ndarray) -> np.ndarray:
    """Draw ``chunk`` into the first ``size`` rows of a float64 (rows, n, 2)
    ``out``: interleaved (re, im) normals, returned as a complex view."""
    z = rng.generator(chunk).standard_normal(out=out[:size])
    return z.view(np.complex128)[..., 0]


def gaussian_chunk(
    frame: EnergyFrame, rng: RngSpec, chunk: int, size: int, out: np.ndarray
) -> np.ndarray:
    """States of one chunk: Re and Im of each component drawn independently
    with density proportional to exp(-n E'_k x^2 / E').

    The states are a view into ``out`` (see :func:`_complex_normals`), valid
    until its rows are filled again.
    """
    sig = _gaussian_sigmas(frame)
    psi = _complex_normals(rng, chunk, size, sig.size, out)
    psi *= sig
    return psi


def _gaussian_draw(frame: EnergyFrame, rng: RngSpec) -> Callable:
    """``draw(chunk, size, out)`` of the Gaussian ensemble over ``frame``."""
    if frame.dim != frame.base.n:
        raise DomainError("gaussian sampling needs a frame over the full expanded spectrum")
    if not frame.is_harmonic():
        raise DomainError(
            "gaussian sampling requires the pure harmonic shift "
            f"(E'_H = {frame.e_prime_harm}, E' = {frame.e_prime})"
        )
    return lambda chunk, size, out: gaussian_chunk(frame, rng, chunk, size, out)


def sample_gaussian_ensemble(frame: EnergyFrame, count: int, rng: RngSpec) -> SampleBatch:
    """Approximate sampler of the fixed-expectation ensemble.

    Requires a harmonically shifted frame (E'_H = E'); the output states are
    intentionally *not* normalized -- their norm fluctuates around one with
    Var ||psi||^2 = (1/n^2) sum (E'/E'_k)^2, and expectation values follow
    the Gaussian moment identities.  Consumers that need exact unit vectors
    divide each row by its norm.
    """
    states = _draw_batch(_gaussian_draw(frame, rng), count, frame.dim)
    meta = {
        "kind": "gaussian",
        "spectrum": spectrum_digest(frame.base),
        "energy": frame.energy,
        "shift": frame.shift,
        "normalized": False,
    }
    return SampleBatch(states=states, weights=None, meta=meta)


def sample_sphere(n: int, count: int, rng: RngSpec) -> SampleBatch:
    """Uniform unit vectors on the complex sphere in C^n (normalized 2n normals)."""
    if n < 1:
        raise DomainError("dimension must be positive")

    def draw(chunk: int, size: int, out: np.ndarray) -> np.ndarray:
        psi = _complex_normals(rng, chunk, size, n, out)
        psi /= _row_norms(psi)[:, None]
        return psi

    return SampleBatch(
        states=_draw_batch(draw, count, n),
        weights=None,
        meta={"kind": "sphere", "n": n, "normalized": True},
    )


def _gradient_norm(e1, e2):
    """2 sqrt(e2 - e1^2) for the energy moments e1 = <H>, e2 = <H^2> of unit
    states (floats or arrays): the coarea factor of the shell reweighting."""
    return 2.0 * np.sqrt(np.maximum(e2 - e1 * e1, 0.0))


def gradient_norm(spectrum: Spectrum, state: np.ndarray) -> float:
    """Tangential gradient norm of the energy function at a unit state:
    2 sqrt(sum E_k^2 |psi_k|^2 - (sum E_k |psi_k|^2)^2).

    Depends on |psi_k|^2 only, hence invariant under phases; vanishes exactly
    on eigenvectors.
    """
    psi = np.asarray(state, dtype=complex).ravel()
    levels = spectrum.expand()
    if psi.size != levels.size:
        raise DomainError(f"state has dimension {psi.size}, spectrum has {levels.size}")
    p = np.abs(psi) ** 2
    norm = p.sum()
    if abs(norm - 1.0) > 1e-9:
        raise DomainError(f"state must be normalized to 1e-9 (|psi|^2 = {norm})")
    e1 = float(np.dot(p, levels))
    e2 = float(np.dot(p, levels ** 2))
    return float(_gradient_norm(e1, e2))


def oracle_manifold_sample(
    spectrum: Spectrum,
    energy: float,
    eta: float | None,
    count: int,
    max_draws: int | None,
    rng: RngSpec,
    proposal: str = "uniform",
    workers: int | None = None,
) -> SampleBatch:
    """Exact small-n sampler of the constant-energy manifold via shell rejection.

    Draws proposals, keeps unit states with |<psi|H|psi> - E| < eta, and
    attaches importance weights so that weighted averages estimate
    Hausdorff-measure expectations as eta -> 0.  The shell has thickness
    proportional to the inverse tangential gradient norm, so every accepted
    state is reweighted by that norm.

    ``proposal="uniform"`` draws from the sphere (weights are exactly the
    gradient norms).  ``proposal="gaussian"`` draws from the harmonic-shift
    Gaussian ensemble and corrects by the exact density ratio, whose
    on-sphere form is <psi|H'|psi>^n; this keeps dimensions like 2^m
    reachable where uniform acceptance would be astronomically small.
    Gaussian-proposal weights are reported relative to their maximum.

    ``eta=None`` means :func:`default_shell_width` and ``max_draws=None``
    means ``200 * count``.  Proposal chunks of ``chunk_layout(max_draws, n)``
    are drawn and screened on ``workers`` threads (default: the CPUs
    available) and taken in layout order until ``count`` states are accepted;
    chunks drawn ahead of that point are discarded, so the batch does not
    depend on ``workers``.
    """
    if eta is None:
        eta = default_shell_width(spectrum)
    if max_draws is None:
        max_draws = 200 * count
    if not eta > 0.0:
        raise DomainError("shell width eta must be positive")
    if count < 1:
        raise DomainError("count must be positive")
    if max_draws < 1:
        raise DomainError("max_draws must be positive")
    if spectrum.all_equal:
        raise DomainError(
            "gradient norm vanishes identically for an all-equal spectrum; "
            "the shell reweighting is degenerate"
        )
    spectrum._require_inside(energy)
    if proposal not in ("uniform", "gaussian"):
        raise DomainError(f"unknown proposal {proposal!r}")

    n = spectrum.n
    levels = spectrum.expand()
    frame = harmonic_frame(spectrum, energy) if proposal == "gaussian" else None
    if frame is None:
        draw = lambda chunk, size, out: _complex_normals(rng, chunk, size, n, out)
    else:
        draw = _gaussian_draw(frame, rng)
    layout = chunk_layout(max_draws, n)

    def screen(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(accepted unit states, their log-weights) of one chunk."""
        # normalization deferred: accept on the normalized energy, then
        # rescale only the accepted rows
        p = np.abs(raw) ** 2
        nrm2 = p.sum(axis=1)
        e1 = (p @ levels) / nrm2
        mask = np.abs(e1 - energy) < eta
        e1 = e1[mask]
        nrm2 = nrm2[mask]
        p_acc = p[mask] / nrm2[:, None]
        e2 = p_acc @ (levels ** 2)
        grad = _gradient_norm(e1, e2)
        keep = grad > 0.0
        psi_acc = raw[mask][keep] / np.sqrt(nrm2[keep, None])
        lw = np.log(grad[keep])
        if proposal == "gaussian":
            lw = lw + n * np.log(e1[keep] + frame.shift)
        return psi_acc, lw

    accepted: list[np.ndarray] = []
    logw: list[np.ndarray] = []
    n_accepted = 0
    n_drawn = 0
    task = _chunk_task(draw, screen, layout, n)
    with closing(_map_ordered(task, enumerate(layout), workers)) as stream:
        for size, (psi_acc, lw) in zip(layout, stream):
            n_drawn += size
            accepted.append(psi_acc)
            logw.append(lw)
            n_accepted += psi_acc.shape[0]
            if n_accepted >= count:
                break

    if n_accepted == 0:
        raise DomainError(
            f"no acceptances in {n_drawn} draws (eta = {eta}); widen the shell"
        )
    states = np.concatenate(accepted)[:count]
    lw = np.concatenate(logw)[:count]
    if proposal == "gaussian":
        weights = np.exp(lw - lw.max())
    else:
        weights = np.exp(lw)
    rate = n_accepted / n_drawn
    if states.shape[0] < count:
        warnings.warn(
            f"accepted only {states.shape[0]} of {count} requested states in "
            f"{n_drawn} draws (rate {rate:.3g})",
            LowAcceptanceWarning,
            stacklevel=2,
        )
    meta = {
        "kind": "oracle",
        "proposal": proposal,
        "spectrum": spectrum_digest(spectrum),
        "energy": energy,
        "eta": eta,
        "acceptance_rate": rate,
        "normalized": True,
        "weight_scale": "relative" if proposal == "gaussian" else "gradient-norm",
    }
    if frame is not None:
        meta["shift"] = frame.shift
    return SampleBatch(states=states, weights=weights, meta=meta)
