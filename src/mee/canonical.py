"""Canonical and typical reduced density matrices.

Covers the diagonal canonical state of a non-interacting bipartite system,
its deviation constant, the exact qubit (two-level) results on the Bloch
ball, the radial density of reduced qubit states, and the determinant
maximizer under trace and energy constraints.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .bounds import ConcentrationConstants, _exp_or_inf, median_window, tail_log_bound
from .errors import DomainError, NumericalError
from .spectrum import EnergyFrame, Spectrum, harmonic_shift_solve, epsilon_shift_solve

__all__ = [
    "DensityMatrix",
    "BipartiteSpectrum",
    "rho_c_bipartite",
    "rho_c_flat_env",
    "delta_deviation",
    "reduced_dm_tail",
    "detmax_state",
    "qubit_canonical",
    "qubit_exact_tail",
    "qubit_exponential_bound",
    "hall_radial_density",
]


@dataclass(frozen=True)
class DensityMatrix:
    """A small Hermitian matrix.

    The trace is reported, never forced to one: canonical constructions are
    intentionally slightly unnormalized, and ``normalized()`` provides the
    trace-one view for comparisons against empirical reduced states.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise DomainError("density matrix must be square and nonempty")
        scale = max(1.0, float(np.abs(m).max()))
        if not np.allclose(m, m.conj().T, atol=1e-12 * scale, rtol=0.0):
            raise DomainError("density matrix must be Hermitian to 1e-12")
        m = 0.5 * (m + m.conj().T)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_diagonal(cls, values: Sequence[float]) -> "DensityMatrix":
        return cls(np.diag(np.asarray(values, dtype=float)))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    @property
    def diagonal(self) -> np.ndarray:
        return self.matrix.diagonal().real.copy()

    @property
    def is_diagonal(self) -> bool:
        off = self.matrix - np.diag(self.matrix.diagonal())
        return bool(np.all(np.abs(off) <= 1e-14 * max(1.0, float(np.abs(self.matrix).max()))))

    def normalized(self) -> "DensityMatrix":
        tr = self.trace
        if tr <= 0.0:
            raise DomainError("cannot normalize a matrix with nonpositive trace")
        return DensityMatrix(self.matrix / tr)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    def hs_distance(self, other: "DensityMatrix") -> float:
        """Hilbert-Schmidt (Frobenius) distance."""
        if other.dim != self.dim:
            raise DomainError("dimension mismatch")
        return float(np.linalg.norm(self.matrix - other.matrix))

    def to_json(self) -> dict:
        out: dict = {"dim": self.dim, "trace": self.trace}
        if self.is_diagonal:
            out["diagonal"] = [float(x) for x in self.diagonal]
        else:
            out["re"] = self.matrix.real.tolist()
            out["im"] = self.matrix.imag.tolist()
        return out


@dataclass(frozen=True)
class BipartiteSpectrum:
    """Spectra of the two non-interacting parts; combined levels are all pairwise sums."""

    levels_a: tuple[float, ...]
    levels_b: tuple[float, ...]

    def __post_init__(self):
        # each part is checked and stored by the rules of a Spectrum
        object.__setattr__(self, "levels_a", Spectrum(self.levels_a).levels)
        object.__setattr__(self, "levels_b", Spectrum(self.levels_b).levels)

    @property
    def dim_a(self) -> int:
        return len(self.levels_a)

    @property
    def dim_b(self) -> int:
        return len(self.levels_b)

    @property
    def n(self) -> int:
        return self.dim_a * self.dim_b

    def flat_levels(self) -> np.ndarray:
        """Combined levels E_kl = E_k^A + E_l^B in row-major (A-major) order,
        matching the index convention of a reshape to (dim_a, dim_b)."""
        a = np.asarray(self.levels_a, dtype=float)
        b = np.asarray(self.levels_b, dtype=float)
        return (a[:, None] + b[None, :]).ravel()

    def combined(self) -> Spectrum:
        """Combined spectrum with equal values grouped into degeneracies.

        The grouping is done once per instance; every call returns that spectrum.
        """
        return self._combined

    @cached_property
    def _combined(self) -> Spectrum:
        return Spectrum.grouped(self.flat_levels())

    @classmethod
    def from_json(cls, obj: dict) -> "BipartiteSpectrum":
        return cls(tuple(obj["levels_a"]), tuple(obj["levels_b"]))

    def to_json(self) -> dict:
        return {"levels_a": list(self.levels_a), "levels_b": list(self.levels_b)}


def rho_c_bipartite(bs: BipartiteSpectrum, frame: EnergyFrame) -> DensityMatrix:
    """Canonical reduced state of part A for H = H_A + H_B at the frame's energy E.

    Diagonal with entries (1 + 1/(2n))/(n + 1) * sum_l E'/E'_kl, where
    ``frame`` is the epsilon-solved frame of ``bs.combined()`` (the one
    :func:`constants_for` returns).  The trace is close to but not exactly
    one; the deviation equals (1 + 1/(2n)) * n/(n+1) * E'/E'_H - 1.
    """
    if frame.dim != bs.n or frame.base != bs.combined():
        raise DomainError("frame must be solved on the combined spectrum at its dimension")
    n = frame.dim
    # e_min + s > 0 in the frame, and fl(x + s) is monotone in x, so every E'_kl > 0
    shifted = bs.flat_levels().reshape(bs.dim_a, bs.dim_b) + frame.shift
    entries = (1.0 + 0.5 / n) / (n + 1.0) * (frame.e_prime / shifted).sum(axis=1)
    return DensityMatrix.from_diagonal(entries)


def rho_c_flat_env(
    levels_a: Sequence[float],
    energy: float,
    epsilon: float,
    n: int,
) -> DensityMatrix:
    """Canonical state for H_B = 0 at total dimension ``n``.

    When every environment level is zero the combined level distribution is
    that of ``levels_a`` alone, so the shift solve only sees ``levels_a``
    while n enters analytically.  The environment dimension n/|A| need not
    be an integer, which lets a single formula cover dimension sweeps.
    """
    spec_a = Spectrum(tuple(levels_a))
    frame = epsilon_shift_solve(spec_a, energy, epsilon, dim=n)
    shifted = spec_a.expand() + frame.shift
    entries = (1.0 + 0.5 / n) / (n + 1.0) * (n / spec_a.n) * frame.e_prime / shifted
    return DensityMatrix.from_diagonal(entries)


def delta_deviation(constants: ConcentrationConstants) -> float:
    """The additive deviation constant of the typical-reduced-state bound:
    sqrt(E'(1 + 1/n)/E'_min) times the median window of a 1-Lipschitz function."""
    ratio = constants.frame.e_prime / constants.frame.e_prime_min
    return math.sqrt(ratio * (1.0 + 1.0 / constants.n)) * median_window(constants, 1.0)


def reduced_dm_tail(constants: ConcentrationConstants, dim_a: int, t: float) -> float:
    """Probability bound for the event ||psi^A - rho_c||_2 > sqrt(8)*|A|*(t + delta).

    Returns |A|(|A|+1) * a * n^(3/2) * exp(-c n (t - 1/(4n))^2 + 2 eps sqrt(n));
    delta (:func:`delta_deviation`) only shifts the event threshold and does
    not enter the value.
    """
    if dim_a < 1:
        raise DomainError("dim_a must be positive")
    if t <= 0.0:
        raise DomainError("t must be positive")
    return _exp_or_inf(math.log(dim_a * (dim_a + 1.0)) + tail_log_bound(constants, t))


def detmax_state(levels_a: Sequence[float], energy: float, tol: float = 1e-12) -> DensityMatrix:
    """Determinant maximizer among states with Tr(rho) = 1 and Tr(rho H_A) = E.

    The maximizer is diagonal with entries E'/(|A| E'_i) at the harmonic
    shift of ``levels_a``; both constraints then hold by construction and
    are re-verified to ``tol``.
    """
    spec = Spectrum(tuple(levels_a))
    spec._require_inside(energy)
    shift = harmonic_shift_solve(spec, energy, tol)
    lv = spec.expand()
    lam = (energy + shift) / (lv.size * (lv + shift))
    scale = max(1.0, abs(energy))
    if abs(lam.sum() - 1.0) > 1e3 * tol or abs(float(np.dot(lam, lv)) - energy) > 1e3 * tol * scale:
        raise NumericalError(
            "determinant maximizer violates its constraints",
            residual=float(abs(lam.sum() - 1.0)),
        )
    return DensityMatrix.from_diagonal(lam)


def _check_qubit_energy(e1: float, e2: float, energy: float) -> None:
    """Require an energy between the ground level and the two-level midpoint."""
    if not (e2 < energy < 0.5 * (e1 + e2) < e1):
        raise DomainError(
            f"need E2 < E < (E1+E2)/2 < E1, got E1={e1}, E2={e2}, E={energy}"
        )


def qubit_canonical(e1: float, e2: float, energy: float) -> DensityMatrix:
    """Exact canonical state of a two-level part: diag((E-E2)/(E1-E2), (E1-E)/(E1-E2)).

    Requires E2 < E < (E1+E2)/2 < E1, i.e. an energy strictly between the
    ground level and the infinite-temperature midpoint.
    """
    _check_qubit_energy(e1, e2, energy)
    d1 = (energy - e2) / (e1 - e2)
    return DensityMatrix.from_diagonal([d1, 1.0 - d1])


def _bloch_cap_height(e1: float, e2: float, energy: float, dim_b: int, eps: float) -> float:
    """1 - r_z^2 for the energy plane in the Bloch ball, once the arguments
    of the qubit tail functions are checked."""
    if dim_b < 2:
        raise DomainError("dim_b must be at least 2")
    if eps < 0.0:
        raise DomainError("eps must be nonnegative")
    _check_qubit_energy(e1, e2, energy)
    return 4.0 * (e1 - energy) * (energy - e2) / (e1 - e2) ** 2


def qubit_exact_tail(e1: float, e2: float, energy: float, dim_b: int, eps: float) -> float:
    """Exact probability that the reduced qubit state deviates by at least eps
    in trace norm: (1 - eps^2/(1 - r_z^2))^(|B|-1), zero once the annulus is empty."""
    disc = _bloch_cap_height(e1, e2, energy, dim_b, eps)
    if eps * eps >= disc:
        return 0.0
    return (1.0 - eps * eps / disc) ** (dim_b - 1)


def qubit_exponential_bound(e1: float, e2: float, energy: float, dim_b: int, eps: float) -> float:
    """Exponential upper bound exp(-eps^2 (|B|-1)(E1-E2)^2 / (4(E1-E)(E-E2)))
    dominating the exact tail for all eps >= 0."""
    disc = _bloch_cap_height(e1, e2, energy, dim_b, eps)
    return math.exp(-eps * eps * (dim_b - 1) / disc)


def hall_radial_density(dim_b: int, r: float) -> float:
    """Radial density c_B (1 - r^2)^(|B|-2) of reduced qubit states in the
    Bloch ball, normalized so the density integrates to one over the unit
    3-ball.  |B| = 2 recovers the flat (Hilbert-Schmidt) measure."""
    if dim_b < 2:
        raise DomainError("dim_b must be at least 2")
    if not (0.0 <= r <= 1.0):
        raise DomainError("radius must lie in [0, 1]")
    log_cb = math.lgamma(dim_b + 0.5) - math.lgamma(dim_b - 1.0) - 1.5 * math.log(math.pi)
    base = 1.0 - r * r
    if base == 0.0:
        return math.exp(log_cb) if dim_b == 2 else 0.0
    return math.exp(log_cb + (dim_b - 2.0) * math.log(base))
