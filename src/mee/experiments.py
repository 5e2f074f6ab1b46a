"""Monte Carlo verification harnesses.

Each experiment produces an :class:`ExperimentReport`: a list of measured
quantities with sub-batch standard errors, each paired with its analytic
reference (or explicitly marked as having none) and a pass/fail verdict at
the configured tolerance.  Reports serialize to JSON and re-parse losslessly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bounds import _tail_constant, constants_for, tail_bound
from .canonical import BipartiteSpectrum, DensityMatrix, delta_deviation, rho_c_bipartite
from .errors import DomainError, NumericalError
from .sampling import (
    RngSpec,
    _chunk_stream,
    _gaussian_draw,
    _map_ordered,
    oracle_manifold_sample,
)
from .spectrum import EnergyFrame, Spectrum, _dot, harmonic_frame

__all__ = [
    "Measured",
    "ExperimentReport",
    "TailCurve",
    "subbatch_mean_error",
    "tail_report",
    "moment_report_streamed",
    "reduced_dm_report",
    "spin_spectrum",
    "binary_entropy",
    "SpinEnsembleSpec",
    "spin_concentration_probe",
]

_SUB_BATCHES = 32
_VAR_RTOL = 0.1  # relative tolerance of the moments report's variance identities
# Measured fields that hold floats and may be non-finite.
_FLOAT_FIELDS = ("value", "std_error", "reference", "tolerance")


@dataclass(frozen=True)
class Measured:
    """One measured quantity with its analytic reference and pass rule.

    mode:
      sigmas    |value - reference| <= tolerance * std_error
      relative  |value/reference - 1| <= tolerance
      lower     value >= reference - tolerance * std_error
      upper     value <= reference (exact comparison, tolerance unused)
      factor    reference/tolerance <= value <= reference * tolerance
      none      informational, no reference, never fails

    A non-finite value, std_error, reference or tolerance (a one-state
    sample has no spread) is named in the entry's ``non_finite``, which maps
    the field to its ``repr``: ``dumps_record`` writes the field itself as
    null, and ``from_json`` restores it from there.
    """

    name: str
    value: float
    std_error: float | None = None
    reference: float | None = None
    mode: str = "none"
    tolerance: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        if self.std_error is not None:
            object.__setattr__(self, "std_error", float(self.std_error))
        if self.reference is not None:
            object.__setattr__(self, "reference", float(self.reference))
        object.__setattr__(self, "tolerance", float(self.tolerance))

    @property
    def passed(self) -> bool | None:
        if self.mode == "none":
            return None
        if self.reference is None:
            raise DomainError(f"measured {self.name!r} has mode {self.mode} but no reference")
        if self.mode == "sigmas":
            return abs(self.value - self.reference) <= self.tolerance * (self.std_error or 0.0)
        if self.mode == "relative":
            if self.reference == 0.0:
                raise DomainError(f"measured {self.name!r} has mode relative but reference 0")
            return abs(self.value / self.reference - 1.0) <= self.tolerance
        if self.mode == "lower":
            return self.value >= self.reference - self.tolerance * (self.std_error or 0.0)
        if self.mode == "upper":
            return self.value <= self.reference
        if self.mode == "factor":
            return self.reference / self.tolerance <= self.value <= self.reference * self.tolerance
        raise DomainError(f"unknown pass mode {self.mode!r}")

    def to_json(self) -> dict:
        obj = {
            "name": self.name,
            "value": self.value,
            "std_error": self.std_error,
            "reference": self.reference,
            "mode": self.mode,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }
        non_finite = {
            key: repr(obj[key])
            for key in _FLOAT_FIELDS
            if obj[key] is not None and not math.isfinite(obj[key])
        }
        if non_finite:
            obj["non_finite"] = non_finite
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "Measured":
        floats = {key: obj[key] for key in _FLOAT_FIELDS}
        floats.update((key, float(text)) for key, text in obj.get("non_finite", {}).items())
        return cls(name=obj["name"], mode=obj["mode"], **floats)


@dataclass(frozen=True)
class ExperimentReport:
    name: str
    inputs: dict
    measured: tuple[Measured, ...]

    @property
    def passed(self) -> bool:
        """True when every quantity that has a pass rule passes."""
        return all(m.passed is not False for m in self.measured)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "inputs": self.inputs,
            "measured": [m.to_json() for m in self.measured],
            "passed": self.passed,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentReport":
        return cls(
            name=obj["name"],
            inputs=obj["inputs"],
            measured=tuple(Measured.from_json(m) for m in obj["measured"]),
        )


def subbatch_mean_error(
    values: np.ndarray, weights: np.ndarray | None = None
) -> tuple[float, float]:
    """(weighted) mean and its standard error from 32 contiguous sub-batches.

    Robust to mildly non-normal estimators; degenerates gracefully for tiny
    samples by using as many nonempty parts as available.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise DomainError("cannot estimate from an empty sample")
    if weights is None:
        mean = float(values.mean())
    else:
        weights = np.asarray(weights, dtype=float)
        mean = float(_dot(weights, values) / weights.sum())
    parts = min(_SUB_BATCHES, values.size)
    bounds = np.linspace(0, values.size, parts + 1, dtype=int)
    sub = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if weights is None:
            sub.append(values[lo:hi].mean())
        else:
            sub.append(_dot(weights[lo:hi], values[lo:hi]) / weights[lo:hi].sum())
    sub = np.asarray(sub)
    if sub.size < 2:
        return mean, float("inf")
    return mean, float(sub.std(ddof=1) / math.sqrt(sub.size))


def _gaussian_stream(
    frame: EnergyFrame, count: int, rng: RngSpec, reduce: Callable, workers: int | None,
    finish: Callable | None = None,
) -> tuple[np.ndarray, ...]:
    """Each array of the tuple ``reduce(states)`` (one leading row per state)
    concatenated over :func:`sample_gaussian_ensemble`'s batch in state order,
    drawn and reduced in row blocks of its chunks on ``workers`` threads;
    ``reduce`` must not keep a view of its argument.  With ``finish``, each
    array is instead that of ``finish(*arrays)`` of each chunk's arrays,
    concatenated in chunk order (see :func:`_chunk_stream`)."""
    draw = _gaussian_draw(frame)
    if count < 1:
        raise DomainError("cannot estimate from an empty sample")
    task, items = _chunk_stream(rng, draw, reduce, count, frame.dim, finish)
    # Called here, not in sampling: bench/spans.py times chunks by wrapping this binding.
    results = list(_map_ordered(task, items, workers))
    return tuple(np.concatenate(parts) for parts in zip(*results))


# ---------------------------------------------------------------------------
# Reduced density matrices


def _reduced_states(psi: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Reduced state psi^A of each normalized state of a (count, dim_a*dim_b) block."""
    psi = psi / np.linalg.norm(psi, axis=1)[:, None]
    psi = psi.reshape(-1, dim_a, dim_b)
    return np.einsum("mak,mbk->mab", psi, psi.conj())


def reduced_dm_report(
    bs: BipartiteSpectrum,
    energy: float,
    epsilon: float,
    count: int,
    rng: RngSpec,
    workers: int | None = None,
) -> tuple[ExperimentReport, DensityMatrix]:
    """Gaussian-sampler check of the canonical reduced state.

    Streams ``count`` Gaussian states over the flat bipartite spectrum,
    normalizes each, and measures (a) the per-sample deviation
    ||psi^A - rho_c^(n)||_2 against the analytic envelope sqrt(8)|A|*delta,
    and (b) the batch-mean reduced state.  Diagonal entries are reported
    informationally: the sampler targets the harmonic-shift profile, while
    rho_c^(n) carries the epsilon-multiplier shift; their gap is part of the
    deviation budget, not a failure.
    """
    dim_a, dim_b = bs.dim_a, bs.dim_b
    flat = Spectrum(bs.flat_levels())
    frame = harmonic_frame(flat, energy)
    consts = constants_for(bs.combined(), energy, epsilon)
    rho_ref = rho_c_bipartite(bs, consts.frame)
    envelope = math.sqrt(8.0) * dim_a * delta_deviation(consts)

    def one_block(psi: np.ndarray):
        rhos = _reduced_states(psi, dim_a, dim_b)
        return rhos, np.linalg.norm(rhos - rho_ref.matrix, axis=(1, 2))

    def one_chunk(rhos: np.ndarray, devs: np.ndarray):
        # summed over the whole chunk, so the sum does not depend on the row
        # blocks, and only one chunk's reduced states are held at a time
        return rhos.sum(axis=0)[None], devs

    rho_sums, devs = _gaussian_stream(frame, count, rng, one_block, workers, one_chunk)
    rho_sum = sum(rho_sums, np.zeros((dim_a, dim_a), dtype=complex))
    rho_hat = DensityMatrix(0.5 * (rho_sum + rho_sum.conj().T) / count)

    mean_dev, se_dev = subbatch_mean_error(devs)
    measured = [
        Measured("mean_hs_deviation", mean_dev, se_dev, envelope, "upper"),
        Measured("trace", rho_hat.trace, None, 1.0, "relative", 1e-10),
    ]
    diag_hat = rho_hat.diagonal
    diag_ref = rho_ref.diagonal
    for k in range(dim_a):
        measured.append(
            Measured(f"diag_{k}", float(diag_hat[k]), None, float(diag_ref[k]), "none")
        )
    report = ExperimentReport(
        name="reduced-dm",
        inputs={
            "bipartite": bs.to_json(),
            "energy": energy,
            "epsilon": epsilon,
            "count": count,
            "rng": rng.to_json(),
            "envelope": envelope,
            "rho_c_diagonal": [float(x) for x in diag_ref],
            "rho_c_trace": rho_ref.trace,
            "shift_harmonic": frame.shift,
            "shift_constants": consts.frame.shift,
        },
        measured=tuple(measured),
    )
    return report, rho_hat


# ---------------------------------------------------------------------------
# Tail curves


@dataclass(frozen=True)
class TailCurve:
    """Empirical exceedance frequencies around the empirical median, paired
    with the analytic bound clamped to [0, 1]."""

    ts: np.ndarray
    frequencies: np.ndarray
    median: float
    bounds: np.ndarray

    def to_rows(self) -> np.ndarray:
        """The ``(t, frequency, bound)`` table, one row per t."""
        return np.column_stack((self.ts, self.frequencies, self.bounds))


def _sorted_ts(ts: Sequence[float]) -> np.ndarray:
    ts = np.asarray(list(ts), dtype=float)
    if np.any(np.diff(ts) < 0.0):
        raise DomainError("ts must be sorted ascending")
    return ts


def _tail_curve(values: np.ndarray, ts: np.ndarray, bounds: np.ndarray) -> TailCurve:
    """Empirical Prob{|value - median| > t} of a nonempty sample at each of
    the sorted ``ts``, centered at its median as the bound's statement is,
    beside the clamped ``bounds`` at those t."""
    med = float(np.median(values))
    dev = np.abs(values - med)
    freqs = np.array([np.mean(dev > t) for t in ts])
    return TailCurve(ts=ts, frequencies=freqs, median=med, bounds=bounds)


def _first_coordinate(states: np.ndarray) -> tuple[np.ndarray]:
    """Re(psi_1) of each state after normalization, without a normalized copy
    of the batch."""
    return ((states[:, 0] / np.linalg.norm(states, axis=1)).real,)


def tail_report(
    spectrum: Spectrum,
    energy: float,
    epsilon: float,
    count: int,
    rng: RngSpec,
    ts: Sequence[float],
    workers: int | None = None,
) -> tuple[ExperimentReport, TailCurve]:
    """Gaussian-sampler tail curve of the 1-Lipschitz Re(psi_1) on normalized
    states against the analytic bound at ``epsilon``.

    Each t is reported as the empirical exceedance frequency minus the
    clamped bound, which passes when it is not positive.  Streams the batch:
    only one value per state is kept.

    Each input is checked once, before the sampler's harmonic shift is
    solved, in this order: the order of ``ts``; ``epsilon``, by the solve of
    the constants; each t, by its clamped bound, which rejects a negative t.
    """
    ts = _sorted_ts(ts)
    consts = constants_for(spectrum, energy, epsilon)
    bounds = np.array([min(1.0, tail_bound(consts, t)) for t in ts])
    frame = harmonic_frame(spectrum, energy)
    (values,) = _gaussian_stream(frame, count, rng, _first_coordinate, workers)
    curve = _tail_curve(values, ts, bounds)
    measured = tuple(
        Measured(f"excess_over_bound_t_{t:g}", float(freq - bound), None, 0.0, "upper")
        for t, freq, bound in zip(curve.ts, curve.frequencies, curve.bounds)
    )
    report = ExperimentReport(
        name="tail",
        inputs={
            "spectrum": spectrum.to_json(),
            "energy": energy,
            "epsilon": epsilon,
            "count": count,
            "rng": rng.to_json(),
            "t_values": [float(t) for t in curve.ts],
            "median": curve.median,
        },
        measured=measured,
    )
    return report, curve


# ---------------------------------------------------------------------------
# Gaussian moment identities


def _moment_chunk(psi: np.ndarray, levels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-state ||psi||^2 and <psi|H'|psi> of a block of states."""
    p = np.abs(psi)
    p *= p
    return p.sum(axis=1), _dot(p, levels)


def moment_report_streamed(
    spectrum: Spectrum,
    energy: float,
    count: int,
    rng: RngSpec,
    tolerance_sigmas: float = 5.0,
    workers: int | None = None,
) -> ExperimentReport:
    """Check the four Gaussian moment identities on ``count`` states streamed
    from :func:`sample_gaussian_ensemble`'s chunks: means and variances of
    ||psi||^2 and <psi|H'|psi>.  The numbers equal those of the materialized
    batch and do not depend on ``workers``.  No state is drawn for a report
    that fails a check."""
    frame = harmonic_frame(spectrum, energy)
    if not 0.0 < tolerance_sigmas < math.inf:  # else every sigmas verdict is fixed
        raise DomainError(f"tolerance_sigmas must be finite and positive, got {tolerance_sigmas}")
    n = frame.dim
    e_prime = frame.e_prime
    try:
        var_h_ref = e_prime ** 2 / n
    except OverflowError:
        var_h_ref = math.inf
    if not 0.0 < var_h_ref < math.inf:
        flows = "underflows" if var_h_ref == 0.0 else "overflows"
        raise NumericalError(
            f"the reference variance E'^2/n {flows} the float range at E' = {e_prime}"
        )
    levels = frame.expanded_levels
    reduce = lambda psi: _moment_chunk(psi, levels)
    norm2, hq = _gaussian_stream(frame, count, rng, reduce, workers)
    var_norm_ref = float(((e_prime / levels) ** 2).sum()) / n ** 2
    mean_norm, se_norm = subbatch_mean_error(norm2)
    mean_h, se_h = subbatch_mean_error(hq)

    def sample_var(x: np.ndarray) -> float:
        # undefined below two states; NaN without numpy's warnings
        return float(x.var(ddof=1)) if x.size > 1 else math.nan

    measured = (
        Measured("mean_norm_sq", mean_norm, se_norm, 1.0, "sigmas", tolerance_sigmas),
        Measured("mean_shifted_energy", mean_h, se_h, e_prime, "sigmas", tolerance_sigmas),
        Measured(
            "var_shifted_energy", sample_var(hq), None, var_h_ref, "relative", _VAR_RTOL
        ),
        Measured("var_norm_sq", sample_var(norm2), None, var_norm_ref, "relative", _VAR_RTOL),
    )
    return ExperimentReport(
        name="moments",
        inputs={
            "spectrum": spectrum.to_json(),
            "energy": energy,
            "shift": frame.shift,
            "count": count,
            "rng": rng.to_json(),
            "workers_invariant": True,
        },
        measured=measured,
    )


# ---------------------------------------------------------------------------
# Non-interacting spins


def _require_spin_count(m: int) -> None:
    if not (1 <= m <= 30):
        raise DomainError("m must lie in [1, 30]")


def spin_spectrum(m: int) -> Spectrum:
    """Spectrum of m non-interacting spins with per-spin levels {0, 1}:
    level k has degeneracy C(m, k), total dimension 2^m."""
    _require_spin_count(m)
    return Spectrum(
        tuple(float(k) for k in range(m + 1)),
        tuple(math.comb(m, k) for k in range(m + 1)),
    )


def binary_entropy(gamma: float) -> float:
    """Binary entropy in bits, with the continuous limit 0 at the endpoints."""
    if not (0.0 <= gamma <= 1.0):
        raise DomainError("binary entropy is defined on [0, 1]")
    if gamma in (0.0, 1.0):
        return 0.0
    return float(-gamma * math.log2(gamma) - (1.0 - gamma) * math.log2(1.0 - gamma))


@dataclass(frozen=True)
class SpinEnsembleSpec:
    """Probe configuration: m spins, target energy alpha*m, cut level gamma*m."""

    m: int
    alpha: float
    gamma: float

    def __post_init__(self):
        _require_spin_count(self.m)
        if not (0.0 < self.alpha < 0.5):
            raise DomainError("alpha must lie in (0, 1/2)")
        if not (self.alpha < self.gamma < 0.5):
            raise DomainError("gamma must lie in (alpha, 1/2)")


def spin_concentration_probe(
    spec: SpinEnsembleSpec,
    count: int,
    rng: RngSpec,
    eta: float | None = None,
    workers: int | None = None,
) -> ExperimentReport:
    """Evidence that the spin ensemble admits no exponential concentration.

    Samples the energy manifold at E = alpha*m (Gaussian-proposal oracle:
    uniform-sphere acceptance at this energy is astronomically small in 2^m)
    and reports:

    * the occupation L of levels below gamma*m, which normalization forces
      to at least 1 - alpha/gamma;
    * the count of low levels against its entropy bound 2^(m H(gamma) + log2 m);
    * the implied ceiling 2 b / (1 - alpha/gamma) * n^(H(gamma) + log2(m)/m)
      on any exponential concentration rate (reported with b = 1);
    * the tail-bound constant c = 3 E'_min/(32 E') at the harmonic shift s,
      checked within a factor 2 of the reference (3/32) * 2^-m / (1 - 2 alpha).
      The harmonic condition 1/(E + s) = 2^-m/s + sum_{k>=1} w_k/(k + s)
      gives c = (3/32) * 2^-m / f, with f < 1 the ground level's share of
      the sum, so the ground-only estimate (3/32) * 2^-m is a strict lower
      bound on c.  The excited levels' share tends to 2 alpha as m grows,
      hence the 1/(1 - 2 alpha) in the reference.  That scale is leading
      order in 2^-m: at alpha = 0.3 the factor-2 rule holds for m = 3..30
      (c is 1.28x the reference at m = 10), but near alpha = 1/2 at small
      or moderate m it is not promised (2.33x at m = 10, alpha = 0.4;
      18.3x at m = 10, alpha = 0.45).  There a false verdict says that the
      leading-order scale does not describe c, not that the solve is wrong.
    * the largest per-coordinate variance of Re(psi_i), informational.

    ``workers`` threads draw the oracle's proposals; the report does not
    depend on it.
    """
    spectrum = spin_spectrum(spec.m)
    energy = spec.alpha * spec.m
    cut = spec.gamma * spec.m
    # gaussian-proposal acceptance sits near 0.5% at m = 10: 400 draws per state
    batch = oracle_manifold_sample(
        spectrum, energy, eta, count, 400 * count, rng, proposal="gaussian", workers=workers
    )
    levels = spectrum.expand()
    low = levels < cut
    p = np.abs(batch.states) ** 2
    l_vals = p[:, low].sum(axis=1)
    l_mean, l_se = subbatch_mean_error(l_vals, batch.weights)
    r_mean, _ = subbatch_mean_error(1.0 - l_vals, batch.weights)

    low_count = int(sum(d for lv, d in zip(spectrum.levels, spectrum.degeneracies) if lv < cut))
    count_bound = 2.0 ** (spec.m * binary_entropy(spec.gamma) + math.log2(spec.m))
    floor = 1.0 - spec.alpha / spec.gamma
    exponent = binary_entropy(spec.gamma) + math.log2(spec.m) / spec.m
    kappa_ceiling = 2.0 / floor * spectrum.n ** exponent

    frame = EnergyFrame(spectrum, energy, batch.meta["shift"])  # the proposal's harmonic shift
    c_reference = (3.0 / 32.0) * 2.0 ** -spec.m / (1.0 - 2.0 * spec.alpha)

    w = batch.weights / batch.weights.sum()
    re2 = batch.states.real ** 2
    var_re = _dot(w, re2) - _dot(w, batch.states.real) ** 2
    max_coord_var = float(var_re.max())

    measured = (
        Measured("occupation_below_cut", l_mean, l_se, floor, "lower", 5.0),
        Measured("partition_identity", l_mean + r_mean, None, 1.0, "relative", 1e-9),
        Measured("low_level_count", float(low_count), None, count_bound, "upper"),
        Measured("kappa_ceiling_b1", kappa_ceiling, None, None, "none"),
        Measured("tail_constant_c", _tail_constant(frame), None, c_reference, "factor", 2.0),
        Measured("max_coordinate_variance", max_coord_var, None, None, "none"),
    )
    return ExperimentReport(
        name="spins",
        inputs={
            "m": spec.m,
            "alpha": spec.alpha,
            "gamma": spec.gamma,
            "count": count,
            "accepted": batch.count,
            "rng": rng.to_json(),
            "eta": batch.meta["eta"],
            "acceptance_rate": batch.meta["acceptance_rate"],
            "harmonic_shift": frame.shift,
        },
        measured=measured,
    )
