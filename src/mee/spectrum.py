"""Energy spectra, power means, and the two energy-shift solvers.

The spectrum is the only trace of the Hamiltonian in this package: all
downstream quantities (concentration constants, canonical states, samplers)
are functions of the energy levels, their degeneracies, a target energy E
and a scalar shift s.  Degeneracies are stored, not expanded, so means cost
O(#distinct levels); expansion happens only on demand (sampling).
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DomainError, InfeasibleError, NumericalError

__all__ = [
    "Spectrum",
    "Means",
    "EnergyFrame",
    "compute_means",
    "harmonic_shift_solve",
    "epsilon_shift_solve",
    "harmonic_frame",
]

_MAX_ITER = 200


@dataclass(frozen=True)
class Spectrum:
    """A finite list of real energy levels with positive integer degeneracies.

    Levels are kept in the order given (no sorting, no grouping), so that
    ``expand()`` is order-preserving.  Degeneracies default to all ones.
    """

    levels: tuple[float, ...]
    degeneracies: tuple[int, ...] = ()

    def __post_init__(self):
        arr = np.array(self.levels, dtype=float)
        if arr.ndim != 1:
            raise DomainError("energy levels must be a flat sequence of numbers")
        if arr.size == 0:
            raise DomainError("spectrum must contain at least one level")
        if not np.isfinite(arr).all():
            raise DomainError("all energy levels must be finite")
        # Python floats, not NumPy scalars: repr and to_json depend on it.
        # float() returns a Python float as it is, so the caller's are shared.
        levels = tuple(map(float, self.levels))
        degs = self.degeneracies
        if degs is None or len(degs) == 0:
            degs = (1,) * len(levels)
        else:
            given = tuple(degs)
            degs = tuple(map(int, given))
            if degs != given:
                raise DomainError("degeneracies must be whole numbers")
            if len(degs) != len(levels):
                raise DomainError("degeneracies must match levels in length")
            if min(degs) < 1:
                raise DomainError("degeneracies must be positive integers")
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "degeneracies", degs)

    # The spectrum is frozen, so its size and extrema are worked out once.
    @cached_property
    def n(self) -> int:
        """Expanded dimension, sum of all degeneracies."""
        return sum(self.degeneracies)

    @cached_property
    def e_min(self) -> float:
        return min(self.levels)

    @cached_property
    def e_max(self) -> float:
        return max(self.levels)

    @property
    def all_equal(self) -> bool:
        return self.e_min == self.e_max

    @cached_property
    def _levels_arr(self) -> np.ndarray:
        arr = np.asarray(self.levels, dtype=float)
        arr.flags.writeable = False
        return arr

    @cached_property
    def _weights_arr(self) -> np.ndarray:
        degs = np.asarray(self.degeneracies, dtype=float)
        arr = degs / degs.sum()
        arr.flags.writeable = False
        return arr

    @cached_property
    def _level_sums(self) -> dict[float, tuple[np.float64, np.float64]]:
        """Shift x -> (sum_k w_k/(E_k + x), sum_k w_k/(E_k + x)^2), filled by
        the shift solver.  The sums do not depend on the solve's energy or
        multiplier, so every solve on this spectrum evaluates each x once."""
        return {}

    def expand(self) -> np.ndarray:
        """Level list with each level repeated by its degeneracy, in order."""
        return np.repeat(self._levels_arr, self.degeneracies)

    def _require_inside(self, energy: float) -> None:
        """Raise DomainError unless e_min < energy < e_max."""
        if not (self.e_min < energy < self.e_max):
            raise DomainError(
                f"energy {energy} outside the open level range ({self.e_min}, {self.e_max})"
            )

    def negated(self) -> "Spectrum":
        return Spectrum(tuple(-x for x in self.levels), self.degeneracies)

    @classmethod
    def grouped(cls, levels: Sequence[float]) -> "Spectrum":
        """Group repeated values of ``levels`` into degeneracies (first-seen order)."""
        counts = Counter(np.asarray(levels, dtype=float).tolist())
        return cls(tuple(counts.keys()), tuple(counts.values()))

    @classmethod
    def from_json(cls, obj: dict) -> "Spectrum":
        return cls(tuple(obj["levels"]), tuple(obj.get("degeneracies") or ()))

    def to_json(self) -> dict:
        return {"levels": list(self.levels), "degeneracies": list(self.degeneracies)}


@dataclass(frozen=True)
class Means:
    """Power means of a spectrum; harmonic/quadratic-type means only exist
    for strictly positive levels and are reported as ``None`` otherwise."""

    e_min: float
    e_max: float
    e_arith: float
    e_harm: float | None
    e_quad: float | None
    n: int

    def to_json(self) -> dict:
        return {
            "e_min": self.e_min,
            "e_max": self.e_max,
            "e_arith": self.e_arith,
            "e_harm": self.e_harm,
            "e_quad": self.e_quad,
            "n": self.n,
        }


def compute_means(spectrum: Spectrum) -> Means:
    """Degeneracy-weighted min/max, arithmetic, harmonic and inverse-quadratic means.

    The inverse-quadratic mean is (mean of E_k^-2)^(-1/2); together with the
    harmonic mean it satisfies e_min <= e_quad <= e_harm <= e_arith <= e_max.
    """
    lv = spectrum._levels_arr
    w = spectrum._weights_arr
    e_arith = float(np.dot(w, lv))
    e_harm = None
    e_quad = None
    if spectrum.e_min > 0.0:
        inv = w / lv
        e_harm = float(1.0 / inv.sum())
        e_quad = float((inv / lv).sum() ** -0.5)
    return Means(spectrum.e_min, spectrum.e_max, e_arith, e_harm, e_quad, spectrum.n)


@dataclass(frozen=True)
class EnergyFrame:
    """A spectrum with target energy E and shift s; E'_k = E_k + s, E' = E + s.

    ``dim`` is the dimension used in every n-dependent formula downstream.
    It equals the spectrum's expanded dimension unless explicitly overridden
    (scaled setups where the level *distribution* is fixed while n varies).
    """

    base: Spectrum
    energy: float
    shift: float
    dim: int = 0

    def __post_init__(self):
        if self.dim == 0:
            object.__setattr__(self, "dim", self.base.n)
        if self.dim < 1:
            raise DomainError("frame dimension must be positive")
        if self.base.e_min + self.shift <= 0.0:
            raise DomainError(
                f"shifted levels must be positive; min E'_k = {self.base.e_min + self.shift}"
            )
        if self.energy + self.shift <= 0.0:
            raise DomainError(f"shifted energy must be positive; E' = {self.energy + self.shift}")

    @property
    def e_prime(self) -> float:
        """Shifted target energy E' = E + s."""
        return self.energy + self.shift

    @cached_property
    def shifted_levels(self) -> np.ndarray:
        arr = self.base._levels_arr + self.shift
        arr.flags.writeable = False
        return arr

    @cached_property
    def expanded_levels(self) -> np.ndarray:
        """Shifted levels E'_k repeated by their degeneracies, one per basis state."""
        arr = np.repeat(self.shifted_levels, self.base.degeneracies)
        arr.flags.writeable = False
        return arr

    @property
    def weights(self) -> np.ndarray:
        return self.base._weights_arr

    @property
    def e_prime_min(self) -> float:
        return self.base.e_min + self.shift

    @property
    def e_prime_max(self) -> float:
        return self.base.e_max + self.shift

    @cached_property
    def e_prime_harm(self) -> float:
        return float(1.0 / np.dot(self.weights, 1.0 / self.shifted_levels))

    @cached_property
    def e_prime_quad(self) -> float:
        return float(np.dot(self.weights, self.shifted_levels ** -2.0) ** -0.5)

    def is_harmonic(self) -> bool:
        """True when E' equals the shifted harmonic mean to relative tolerance 1e-8."""
        return abs(self.e_prime_harm - self.e_prime) <= 1e-8 * abs(self.e_prime)


def _require_finite_energy(energy: float) -> None:
    """Raise DomainError for a NaN or infinite energy, which no solve could
    bracket."""
    if not math.isfinite(energy):
        raise DomainError(f"energy must be finite, got {energy}")


def _require_tol(tol: float) -> None:
    """Raise DomainError for a tolerance no residual meets (NaN, negative) or all do (inf)."""
    if not 0.0 <= tol < math.inf:
        raise DomainError(f"tol must be finite and nonnegative, got {tol}")


def _shift_root(spectrum: Spectrum, energy: float, multiplier: float, tol: float) -> float:
    """Root of r(x) = multiplier * E_H({E_k + x}) - (E + x).

    r is strictly increasing for non-degenerate spectra (the harmonic-mean
    derivative identity gives r'(x) = multiplier * E_H^2/E_Q^2 - 1), so a
    sign-change bracket plus safeguarded Newton converges globally.  The
    level sums at each x are memoised on ``spectrum``; a sum is a pure
    function of (levels, weights, x), so the memo never changes a result.
    """
    levels = spectrum._levels_arr
    weights = spectrum._weights_arr
    sums = spectrum._level_sums
    span = max(spectrum.e_max - spectrum.e_min, 1.0)

    def residual(x: float) -> tuple[float, float]:
        pair = sums.get(x)
        if pair is None:
            shifted = levels + x
            inv = weights / shifted
            pair = sums[x] = (inv.sum(), (inv / shifted).sum())
        s1, s2 = pair
        r = multiplier / s1 - (energy + x)
        dr = multiplier * (s2 / (s1 * s1)) - 1.0
        return r, dr

    # At the pole a level sum can divide by zero (1/inf is the residual's
    # limit there) and the slope can be inf/inf (Newton needs a finite one).
    with np.errstate(divide="ignore", invalid="ignore"):
        # Start just above the harmonic-mean pole at the lowest level.
        lo = -spectrum.e_min + 1e-14 * span
        r_lo, _ = residual(lo)
        if not math.isfinite(r_lo):
            lo = np.nextafter(lo, math.inf)
            r_lo, _ = residual(lo)
        hi = lo + span
        r_hi, _ = residual(hi)
        n_expand = 0
        while r_hi <= 0.0:
            n_expand += 1
            if n_expand > 200:
                raise InfeasibleError(
                    "no sign change in shift bracket",
                    bracket=(lo, hi),
                    residuals=(r_lo, r_hi),
                )
            hi = lo + (hi - lo) * 2.0
            r_hi, _ = residual(hi)
        if r_lo >= 0.0:
            raise InfeasibleError(
                "shift residual does not change sign in bracket",
                bracket=(lo, hi),
                residuals=(r_lo, r_hi),
            )

        x = 0.5 * (lo + hi)
        for _ in range(_MAX_ITER):
            r, dr = residual(x)
            if abs(r) <= tol * max(abs(energy + x), 1e-300):
                return x
            if r > 0.0:
                hi = x
            else:
                lo = x
            x_new = x - r / dr if (math.isfinite(dr) and dr > 0.0) else math.nan
            if not (lo < x_new < hi):
                x_new = 0.5 * (lo + hi)
            x = x_new
        r, _ = residual(x)
        raise NumericalError(
            f"shift solver did not converge within {_MAX_ITER} iterations", residual=r
        )


def harmonic_shift_solve(spectrum: Spectrum, energy: float, tol: float = 1e-12) -> float:
    """Shift D such that the harmonic mean of {E_k + D} equals E + D.

    Requires E_min <= E < E_A; the solution is unique unless all levels are
    equal (all-equal spectra are handled as an explicit degenerate case and
    never reach the solver).
    """
    _require_tol(tol)
    if spectrum.all_equal:
        if energy == spectrum.e_min:
            return 0.0
        raise DomainError(
            f"all levels equal {spectrum.e_min}; no shift can match energy {energy}"
        )
    means = compute_means(spectrum)
    if not (means.e_min <= energy < means.e_arith):
        raise DomainError(
            f"energy {energy} outside [E_min, E_A) = [{means.e_min}, {means.e_arith})"
        )
    if energy == means.e_min:
        # Degenerate endpoint: the lowest shifted level is exactly zero.
        return -means.e_min
    return _shift_root(spectrum, energy, 1.0, tol)


def epsilon_shift_solve(
    spectrum: Spectrum,
    energy: float,
    epsilon: float,
    tol: float = 1e-12,
    dim: int | None = None,
) -> EnergyFrame:
    """Solve E' = (1 + 1/n)(1 + eps/sqrt(n)) * E'_H(s) for the shift s.

    ``dim`` overrides the dimension n entering the multiplier (the level
    distribution alone determines E'_H).  The returned frame has all
    E'_k > 0 by construction of the bracket.
    """
    _require_tol(tol)
    if not epsilon > 0.0:
        raise DomainError("epsilon must be positive")
    _require_finite_energy(energy)
    n = spectrum.n if dim is None else int(dim)
    if n < 1:
        raise DomainError("dimension must be positive")
    if energy <= spectrum.e_min:
        raise DomainError(
            f"energy {energy} must exceed the lowest level {spectrum.e_min}"
        )
    multiplier = (1.0 + 1.0 / n) * (1.0 + epsilon / math.sqrt(n))
    if math.isinf(multiplier):
        raise DomainError(f"epsilon {epsilon} is too large: the multiplier overflows at n = {n}")
    if spectrum.all_equal:
        # E_H(s) = E_1 + s exactly; the residual is linear in s.
        s = (energy - multiplier * spectrum.e_min) / (multiplier - 1.0)
        if spectrum.e_min + s <= 0.0:
            raise InfeasibleError(
                "no positive-level shift solves the all-equal frame",
                shift=s,
            )
        return EnergyFrame(spectrum, energy, s, n)
    s = _shift_root(spectrum, energy, multiplier, tol)
    return EnergyFrame(spectrum, energy, s, n)


def harmonic_frame(spectrum: Spectrum, energy: float) -> EnergyFrame:
    """EnergyFrame at the pure harmonic shift (the one the Gaussian sampler needs)."""
    shift = harmonic_shift_solve(spectrum, energy)
    return EnergyFrame(spectrum, energy, shift)
