"""Samplers: Gaussian ensemble approximation, uniform sphere, exact shell oracle.

Reproducibility contract: a batch is a pure function of (seed, stream, count)
plus the sampler parameters.  Generation is split into fixed-size chunks
whose RNG streams are derived from (seed, stream, chunk_index), so the same
batch is produced bit-for-bit regardless of how many workers consume the
chunks or whether the batch is materialized or streamed.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import DomainError, LowAcceptanceWarning
from .spectrum import EnergyFrame, Spectrum, _dot, harmonic_frame

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
# Real scalars per row block (1 MB of float64): streams and materialized
# batches draw each chunk in blocks of about this size.
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


def _map_ordered(fn: Callable, items: Iterable, workers: int | None = None) -> Iterator:
    """Yield ``fn(item)`` for each item, in item order.

    At most ``workers`` items are in flight, on min(workers, len(items))
    threads (none for one); ``None`` means the CPUs this process may run on.
    Worker count changes scheduling only: results arrive in item order, so
    every reduction over them is fixed.  The consumer may stop early: an item
    starts only once the consumer has taken the result before it, so at most
    ``workers - 1`` items past the last one taken are computed, and closing
    the generator waits for them.
    """
    items = list(items)
    if workers is None:
        workers = _default_workers()
    workers = min(workers, len(items))
    if workers <= 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
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


def _block_rows(n: int) -> int:
    """Rows per block of a stream over C^n: about ``_NORM_BLOCK_SCALARS``
    numbers, and at least one row.  The blocks depend only on ``n``, and
    every per-row reduction gives a row the same bits in a block of any
    size, so the streams' bytes are those of whole-chunk draws."""
    return max(_NORM_BLOCK_SCALARS // (2 * n), 1)


def _chunk_stream(rng: RngSpec, draw: Callable, reduce: Callable, count: int, n: int,
                  finish: Callable | None = None) -> tuple[Callable, list[tuple[int, int]]]:
    """The chunk stream of ``count`` states in C^n: a :func:`_map_ordered`
    task ``(chunk, size) -> tuple of arrays`` and its items, the
    ``(chunk, size)`` pairs of ``chunk_layout(count, n)``.

    Chunk ``chunk`` comes from one ``rng.generator(chunk)``, drawn and reduced
    in blocks of :func:`_block_rows` states (the last block of a chunk, or
    its only one, may be shorter): ``draw(gen, out)`` fills a float64
    ``(rows, n, 2)`` block ``out`` with the generator's next normals, as
    :func:`_complex_normals` does, and returns the block's states;
    ``reduce(states)`` returns a tuple of arrays with one leading row per
    state (of the states it keeps, for the shell oracle), and must not keep
    a view of ``states``.  Each array is concatenated over the chunk's
    blocks, and the task returns
    ``finish(*arrays)``, or the arrays without ``finish``: the step that must
    see the whole chunk at once, run in the worker so that no more than a
    chunk's reductions are held per item.  Consecutive blocks continue one
    generator, so the states are those of a whole-chunk draw bit for bit.
    Each task draws its blocks into one buffer of its own, of min(block,
    chunk) rows.
    """
    items = list(enumerate(chunk_layout(count, n)))
    rows = _block_rows(n)

    def task(item: tuple[int, int]) -> tuple[np.ndarray, ...]:
        chunk, size = item
        buf = np.empty((min(rows, size), n, 2))
        gen = rng.generator(chunk)
        parts = [reduce(draw(gen, buf[: min(rows, size - lo)])) for lo in range(0, size, rows)]
        arrays = tuple(np.concatenate(arrays) for arrays in zip(*parts))
        return arrays if finish is None else finish(*arrays)

    return task, items


def _draw_batch(rng: RngSpec, draw: Callable, count: int, n: int) -> np.ndarray:
    """The (count, n) batch, each chunk of the layout drawn into its own rows
    in blocks of :func:`_block_rows` states by ``draw(rng.generator(chunk),
    block)`` (see :func:`_chunk_stream`)."""
    states = np.empty((count, n), dtype=complex)
    rows = states.view(np.float64).reshape(count, n, 2)
    block = _block_rows(n)
    for chunk, size in enumerate(chunk_layout(count, n)):
        gen = rng.generator(chunk)
        for lo in range(0, size, block):
            draw(gen, rows[lo : min(lo + block, size)])
        rows = rows[size:]
    return states


def default_shell_width(spectrum: Spectrum) -> float:
    """Shell half-width 0.02 (E_max - E_min)/sqrt(n); the on-sphere energy
    spread scales like 1/sqrt(n), keeping the acceptance rate workable."""
    return 0.02 * (spectrum.e_max - spectrum.e_min) / math.sqrt(spectrum.n)


def _complex_normals(gen: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill a float64 (rows, n, 2) ``out`` with the next normals of ``gen``:
    interleaved (re, im), returned as a complex (rows, n) view."""
    return gen.standard_normal(out=out).view(np.complex128)[..., 0]


def gaussian_chunk(scale: np.ndarray, gen: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """States of one block of a chunk: Re and Im of each component drawn
    independently with density proportional to exp(-n E'_k x^2 / E'), as
    normals times ``scale``, the (n, 2) sigmas sqrt(E'/(2 n E'_k)) of
    :func:`_gaussian_draw`.

    ``gen`` is the chunk's generator, and successive calls draw successive
    rows of the chunk.  The states are a view into ``out`` (see
    :func:`_complex_normals`), valid until its rows are filled again.
    """
    psi = _complex_normals(gen, out)
    out *= scale
    return psi


def _gaussian_draw(frame: EnergyFrame) -> Callable:
    """``draw(gen, out)`` of the Gaussian ensemble over ``frame``: every
    Gaussian state and proposal is drawn by :func:`gaussian_chunk`."""
    if frame.dim != frame.base.n:
        raise DomainError("gaussian sampling needs a frame over the full expanded spectrum")
    if not frame.is_harmonic():
        raise DomainError(
            "gaussian sampling requires the pure harmonic shift "
            f"(E'_H = {frame.e_prime_harm}, E' = {frame.e_prime})"
        )
    sig = np.sqrt(frame.e_prime / (2.0 * frame.dim * frame.expanded_levels))
    scale = np.repeat(sig, 2).reshape(-1, 2)
    return lambda gen, out: gaussian_chunk(scale, gen, out)


def sample_gaussian_ensemble(frame: EnergyFrame, count: int, rng: RngSpec) -> SampleBatch:
    """Approximate sampler of the fixed-expectation ensemble.

    Requires a harmonically shifted frame (E'_H = E'); the output states are
    intentionally *not* normalized -- their norm fluctuates around one with
    Var ||psi||^2 = (1/n^2) sum (E'/E'_k)^2, and expectation values follow
    the Gaussian moment identities.  Consumers that need exact unit vectors
    divide each row by its norm.
    """
    states = _draw_batch(rng, _gaussian_draw(frame), count, frame.dim)
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

    def draw(gen: np.random.Generator, out: np.ndarray) -> np.ndarray:
        psi = _complex_normals(gen, out)
        psi /= np.linalg.norm(psi, axis=1)[:, None]
        return psi

    return SampleBatch(
        states=_draw_batch(rng, draw, count, n),
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
    e1 = float(_dot(p, levels))
    e2 = float(_dot(p, levels ** 2))
    return float(_gradient_norm(e1, e2))


class _ShellScreen:
    """The shell oracle's exact test of one row block of proposals (a complex
    ``(rows, n)`` view, as the oracle's draw returns it): the proposals whose
    energy lies in the shell, as unit states, and their log-weights, plus
    n log(e1 + shift) for the Gaussian proposal (``shift`` None: uniform).

    Every row of the block gets |psi|^2, its row sum and its energy; every
    reduction sums each row on its own in a fixed order, so a row gets the
    same bits in a block of any size: the result is that of the exact test
    of every whole chunk.
    """

    def __init__(self, levels: np.ndarray, energy: float, eta: float, shift: float | None):
        self.levels = levels
        self.levels_sq = levels ** 2
        self.energy = energy
        self.eta = eta
        self.shift = shift

    def __call__(self, raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        p = np.abs(raw)
        p *= p
        nrm2 = p.sum(axis=1)
        e1 = _dot(p, self.levels)
        e1 /= nrm2
        # normalize and weight only the rows in the shell
        mask = np.abs(e1 - self.energy) < self.eta
        raw, p, e1, nrm2 = raw[mask], p[mask], e1[mask], nrm2[mask]
        e2 = _dot(p / nrm2[:, None], self.levels_sq)
        grad = _gradient_norm(e1, e2)
        keep = grad > 0.0
        psi_acc = raw[keep] / np.sqrt(nrm2[keep, None])
        lw = np.log(grad[keep])
        if self.shift is not None:
            lw = lw + self.levels.size * np.log(e1[keep] + self.shift)
        return psi_acc, lw


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
    are drawn and tested on ``workers`` threads (default: the CPUs
    available) and taken in layout order until ``count`` states are accepted;
    chunks drawn ahead of that point are discarded, so the batch does not
    depend on ``workers``.

    Each chunk is drawn by :func:`_chunk_stream` with the sampler's own draw
    (:func:`_gaussian_draw`, or raw :func:`_complex_normals` for the sphere),
    in row blocks of about 1 MB of normals, and every block gets the exact
    test: the proposals' |psi|^2, row sums and energies are formed, and the
    rows in the shell are normalized and weighted.  No array the size of a
    chunk is made, and as each row is reduced on its own in a fixed order,
    the states and weights are those of the exact test of every whole chunk,
    bit for bit.
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

    frame = harmonic_frame(spectrum, energy) if proposal == "gaussian" else None
    shift = None if frame is None else frame.shift
    draw = _complex_normals if frame is None else _gaussian_draw(frame)
    screen = _ShellScreen(spectrum.expand(), energy, eta, shift)
    task, items = _chunk_stream(rng, draw, screen, max_draws, spectrum.n)

    accepted: list[np.ndarray] = []
    logw: list[np.ndarray] = []
    n_accepted = 0
    n_drawn = 0
    with closing(_map_ordered(task, items, workers)) as stream:
        for (_, size), (psi_acc, lw) in zip(items, stream):
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
