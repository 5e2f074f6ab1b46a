"""Energy spectra, power means, and the two energy-shift solvers.

The spectrum is the only trace of the Hamiltonian in this package: all
downstream quantities (concentration constants, canonical states, samplers)
are functions of the energy levels, their degeneracies, a target energy E
and a scalar shift s.  Degeneracies are stored, not expanded, so means cost
O(#distinct levels); expansion happens only on demand (sampling).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
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
# The shift solvers stop at a residual of at most this times |E + x|.
_SHIFT_TOL = 1e-12

# einsum subscripts of the matrix product of a and b, by (a.ndim, b.ndim).
_DOT_SUBSCRIPTS = {(1, 1): "i,i->", (2, 1): "ij,j->i", (1, 2): "i,ij->j"}
# Most terms einsum sums in one pass, at NumPy's iterator buffer size.
_DOT_TERMS = 8192


def _dot(a: np.ndarray, b: np.ndarray):
    """The matrix product of float arrays ``a`` and ``b``, for a 1-D or 2-D
    ``a`` and a 1-D ``b`` or a 1-D ``a`` and a 2-D ``b``, summed in an order
    that depends on the shapes only: NumPy's einsum, which runs on the
    calling thread with kernels built for NumPy's baseline CPU features,
    where BLAS splits a sum by its thread count, its kernel for the CPU and
    a row's place in the matrix.

    Against a 1-D ``b``, einsum sums a row of ``a`` of up to ``_DOT_TERMS``
    terms in one pass; a longer row it sums in one pass beside other rows
    but in pieces when alone, so longer sums are cut into pieces here and
    the pieces added in order.  A row's sum then depends on its terms alone,
    in a block of any size.  Against a 2-D ``b``, the order of each column's
    sum is set by ``b``'s shape.
    """
    subscripts = _DOT_SUBSCRIPTS[a.ndim, b.ndim]
    if b.ndim == 2:
        return np.einsum(subscripts, a, b)
    out = np.einsum(subscripts, a[..., :_DOT_TERMS], b[:_DOT_TERMS])
    for lo in range(_DOT_TERMS, b.size, _DOT_TERMS):
        out += np.einsum(subscripts, a[..., lo : lo + _DOT_TERMS], b[lo : lo + _DOT_TERMS])
    return out


@dataclass(frozen=True)
class Spectrum:
    """A finite list of real energy levels with positive integer degeneracies.

    Levels are kept in the order given (no sorting, no grouping), so that
    ``expand()`` is order-preserving.  Degeneracies default to all ones; they
    may exceed int64, but must sum to at most the largest float.  ``levels``
    and ``degeneracies`` hold Python floats and ints, and a Python float
    given as a level is kept, not copied.

    The constructor also works out, once, the dimension ``n`` (the sum of
    the degeneracies, an exact int), the level and weight arrays, and the
    extrema ``e_min`` and ``e_max``: the levels at the first minimum and
    maximum, so of 0.0 and -0.0 whichever comes first.
    """

    levels: tuple[float, ...]
    degeneracies: tuple[int, ...] = ()
    n: int = field(init=False, repr=False, compare=False)
    e_min: float = field(init=False, repr=False, compare=False)
    e_max: float = field(init=False, repr=False, compare=False)
    _levels_arr: np.ndarray = field(init=False, repr=False, compare=False)
    _weights_arr: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = np.array(self.levels, dtype=float)
        if arr.ndim != 1:
            raise DomainError("energy levels must be a flat sequence of numbers")
        if arr.size == 0:
            raise DomainError("spectrum must contain at least one level")
        if not np.isfinite(arr).all():
            raise DomainError("all energy levels must be finite")
        # Python floats, not NumPy scalars: repr and to_json depend on it.
        # An array's floats come from tolist(), which is fast; float() returns
        # a Python float as it is, so a sequence's are shared.
        if isinstance(self.levels, np.ndarray):
            levels = tuple(arr.tolist())
        else:
            levels = tuple(map(float, self.levels))
        degs = self.degeneracies
        if degs is None or len(degs) == 0:
            degs = (1,) * len(levels)
            n = len(levels)
            weights = np.ones(n) / n
        else:
            given = tuple(degs)
            try:  # int64 whole numbers whose sum cannot overflow take one NumPy pass
                ints = np.array(given)
            except (TypeError, ValueError, OverflowError):  # ragged
                ints = np.array(None)
            fast = ints.ndim == 1 and ints.dtype.kind == "i" and ints.max() <= 2**62 // ints.size
            try:
                degs = tuple(ints.tolist()) if fast else tuple(map(int, given))
            except (TypeError, ValueError, OverflowError):  # None, NaN, inf
                degs = None
            if not fast and degs != given:
                raise DomainError("degeneracies must be whole numbers")
            low, n = (ints.min(), int(ints.sum())) if fast else (min(degs), sum(degs))
            if len(degs) != len(levels):
                raise DomainError("degeneracies must match levels in length")
            if low < 1:
                raise DomainError("degeneracies must be positive integers")
            if n > sys.float_info.max:
                raise DomainError("the degeneracies sum beyond the float range")
            weights = ints.astype(float) if fast else np.asarray(degs, dtype=float)
            weights = weights / weights.sum()
        arr.flags.writeable = False
        weights.flags.writeable = False
        for name, value in (
            ("levels", levels),
            ("degeneracies", degs),
            ("n", n),
            ("e_min", levels[arr.argmin()]),
            ("e_max", levels[arr.argmax()]),
            ("_levels_arr", arr),
            ("_weights_arr", weights),
        ):
            object.__setattr__(self, name, value)

    @property
    def all_equal(self) -> bool:
        return self.e_min == self.e_max

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
        return Spectrum(-self._levels_arr, self.degeneracies)

    @classmethod
    def grouped(cls, levels: Sequence[float]) -> "Spectrum":
        """Group equal values of ``levels`` into degeneracies, in first-seen order.

        A group keeps the value it is first seen with, so 0.0 and -0.0 form
        one group with the sign of whichever comes first.  One sort finds the
        groups; when no two sorted neighbours are equal, the spectrum is
        ``levels`` as given, each of degeneracy one.
        """
        arr = np.asarray(levels, dtype=float)
        if arr.ndim != 1:
            return cls(arr)  # which the constructor rejects
        order = np.argsort(arr)
        ranked = arr[order]
        starts = np.ones(arr.size, dtype=bool)
        np.not_equal(ranked[1:], ranked[:-1], out=starts[1:])
        if starts.all():
            return cls(arr)
        (starts,) = np.nonzero(starts)
        first = np.minimum.reduceat(order, starts)  # the first-seen index of each run
        counts = np.diff(starts, append=arr.size)
        seen = np.argsort(first)
        return cls(arr[first[seen]], tuple(counts[seen].tolist()))

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
    e_harm = None
    e_quad = None
    if spectrum.e_min > 0.0:
        inv = w / lv
        e_harm = float(1.0 / inv.sum())
        e_quad = float((inv / lv).sum() ** -0.5)
    return Means(spectrum.e_min, spectrum.e_max, _arith_mean(spectrum), e_harm, e_quad, spectrum.n)


def _arith_mean(spectrum: Spectrum) -> float:
    """The degeneracy-weighted arithmetic mean E_A, the one mean that the
    energy windows need."""
    return float(_dot(spectrum._weights_arr, spectrum._levels_arr))


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
        return float(1.0 / _dot(self.weights, 1.0 / self.shifted_levels))

    @cached_property
    def e_prime_quad(self) -> float:
        with np.errstate(over="ignore"):
            inv_sq = _dot(self.weights, self.shifted_levels ** -2.0)
        if not 0.0 < inv_sq < math.inf:
            raise NumericalError(
                f"E'_Q is beyond the float range: the mean of 1/E'_k^2 is {inv_sq} at "
                f"min E'_k = {self.e_prime_min}"
            )
        return float(inv_sq ** -0.5)

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


def _checked_dim(spectrum: Spectrum, dim: int | None) -> int:
    """The dimension n of the n-dependent formulas: ``dim``, or the spectrum's
    when it is None.  Raise DomainError for an n below 1 or beyond the float
    range, where every such formula fails."""
    if dim is None:
        return spectrum.n
    if dim > sys.float_info.max:
        raise DomainError("dimension is beyond the float range")
    if dim < 1:
        raise DomainError("dimension must be positive")
    return int(dim)


def _multiplier(epsilon: float, n: int) -> float:
    """The epsilon solve's multiplier m = (1 + 1/n)(1 + eps/sqrt(n))."""
    return (1.0 + 1.0 / n) * (1.0 + epsilon / math.sqrt(n))


def _shift_root(spectrum: Spectrum, energy: float, multiplier: float, tol: float) -> float:
    """Root of r(x) = multiplier * E_H({E_k + x}) - (E + x).

    r is strictly increasing for non-degenerate spectra (the harmonic-mean
    derivative identity gives r'(x) = multiplier * E_H^2/E_Q^2 - 1), so a
    sign-change bracket plus safeguarded Newton converges globally.  The
    bracket and the stopping test have no absolute floor: scaling the levels
    and E scales them.  r is finite at the bracket's start unless the span or
    E + x overflows or the first level sum underflows to 0; no nearby start
    then gives a finite r either, so such a solve raises.  The root is a
    Python float, whichever step ends the solve.
    """
    levels = spectrum._levels_arr
    weights = spectrum._weights_arr
    span = spectrum.e_max - spectrum.e_min

    def residual(x: float) -> tuple[float, float]:
        shifted = levels + x
        inv = weights / shifted
        s1, s2 = inv.sum(), (inv / shifted).sum()
        r = multiplier / s1 - (energy + x)
        dr = multiplier * (s2 / (s1 * s1)) - 1.0
        return r, dr

    # A level sum can divide by zero or overflow at the pole (1/inf is the
    # residual's limit) and the slope can be inf/inf (Newton needs a finite one).
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # Start just above the harmonic-mean pole at the lowest level.
        lo = -spectrum.e_min + 1e-14 * span
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
            if abs(r) <= tol * abs(energy + x):
                return float(x)
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


def harmonic_shift_solve(spectrum: Spectrum, energy: float, tol: float = _SHIFT_TOL) -> float:
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
    e_arith = _arith_mean(spectrum)
    if not (spectrum.e_min <= energy < e_arith):
        raise DomainError(
            f"energy {energy} outside [E_min, E_A) = [{spectrum.e_min}, {e_arith})"
        )
    if energy == spectrum.e_min:
        # Degenerate endpoint: the lowest shifted level is exactly zero.
        return -spectrum.e_min
    return _shift_root(spectrum, energy, 1.0, tol)


def epsilon_shift_solve(
    spectrum: Spectrum,
    energy: float,
    epsilon: float,
    tol: float = _SHIFT_TOL,
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
    n = _checked_dim(spectrum, dim)
    if energy <= spectrum.e_min:
        raise DomainError(
            f"energy {energy} must exceed the lowest level {spectrum.e_min}"
        )
    multiplier = _multiplier(epsilon, n)
    if math.isinf(multiplier):
        raise DomainError(f"epsilon {epsilon} is too large: the multiplier overflows at n = {n}")
    if spectrum.all_equal:
        # E_H(s) = E_1 + s exactly; the residual is linear in s.
        s = (energy - spectrum.e_min) / (multiplier - 1.0) - spectrum.e_min
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
