"""Concentration constants, tail bounds and the median estimation window.

All bound arithmetic is done in log space first, so that dimensions up to
n ~ 1e6 (where exp(2*eps*sqrt(n)) overflows by hundreds of orders of
magnitude) remain usable; the plain-value helpers exponentiate at the end
and return ``inf`` on overflow.  Raw formula values are returned unclamped;
clamping to [0, 1] is a rendering concern.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, InfeasibleError, NumericalError
from .spectrum import (
    _SHIFT_TOL,
    EnergyFrame,
    Spectrum,
    _arith_mean,
    _checked_dim,
    _multiplier,
    _require_finite_energy,
    compute_means,
    epsilon_shift_solve,
)

__all__ = [
    "WindowCheck",
    "ConcentrationConstants",
    "Ellipsoid",
    "check_energy_window",
    "flip_for_high_energy",
    "constants_for",
    "tail_log_bound",
    "tail_log10_bound",
    "tail_bound",
    "optimize_epsilon",
    "median_window",
    "ellipsoid_for",
]

_EXP_OVERFLOW = 709.0  # log threshold beyond which math.exp overflows


def _exp_or_inf(log_value: float) -> float:
    """exp(log_value), or ``inf`` where math.exp would overflow."""
    return math.inf if log_value > _EXP_OVERFLOW else math.exp(log_value)


@dataclass(frozen=True)
class WindowCheck:
    """Result of the low-energy window test E_min < E <= E_A - pi*(E_max-E_min)/sqrt(2(n-1))."""

    ok: bool
    margin: float

    def to_json(self) -> dict:
        return {"ok": self.ok, "margin": self.margin}


@dataclass(frozen=True)
class ConcentrationConstants:
    """The constant bundle (frame, epsilon, a, c, n) of the main tail bound."""

    frame: EnergyFrame
    epsilon: float
    a: float
    c: float

    @property
    def n(self) -> int:
        return self.frame.dim

    def to_json(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "a": self.a,
            "c": self.c,
            "n": self.n,
            "shift": self.frame.shift,
            "energy": self.frame.energy,
            "shifted_energy": self.frame.e_prime,
        }


@dataclass(frozen=True)
class Ellipsoid:
    """Equatorial radii sqrt(E'(1 + 1/(2n))/E'_k) of the median-estimation ellipsoid."""

    radii: np.ndarray

    def __post_init__(self):
        radii = np.asarray(self.radii, dtype=float)
        if radii.ndim != 1 or radii.size == 0 or np.any(radii <= 0.0):
            raise DomainError("ellipsoid radii must be a nonempty positive vector")
        radii.flags.writeable = False
        object.__setattr__(self, "radii", radii)


def check_energy_window(spectrum: Spectrum, energy: float, dim: int | None = None) -> WindowCheck:
    """Check that E sits above E_min but not too close to the arithmetic mean."""
    n = _checked_dim(spectrum, dim)
    if n < 2:
        raise DomainError("the energy window test needs dimension n >= 2")
    margin = (
        _arith_mean(spectrum)
        - math.pi * (spectrum.e_max - spectrum.e_min) / math.sqrt(2.0 * (n - 1))
        - energy
    )
    return WindowCheck(ok=(margin >= 0.0 and energy > spectrum.e_min), margin=margin)


def flip_for_high_energy(spectrum: Spectrum, energy: float) -> tuple[Spectrum, float]:
    """Map a high-energy problem (E_A < E < E_max) onto the low-energy window
    via H -> -H, E -> -E; applying it twice is the identity."""
    means = compute_means(spectrum)
    if not (means.e_arith < energy < means.e_max):
        raise DomainError(
            f"energy {energy} outside the high-energy window ({means.e_arith}, {means.e_max})"
        )
    return spectrum.negated(), -energy


def _tail_constant(frame: EnergyFrame) -> float:
    """The tail-rate constant c = 3 E'_min / (32 E') of a solved frame."""
    return 3.0 * frame.e_prime_min / (32.0 * frame.e_prime)


def constants_for(
    spectrum: Spectrum,
    energy: float,
    epsilon: float,
    dim: int | None = None,
) -> ConcentrationConstants:
    """Solve the shift for ``epsilon`` and assemble (a, c).

    c = 3 E'_min / (32 E') and a = 3040 E'_max^2 / (E'^2 (1 - E'^2/(eps^2 E'_Q^2))).
    a > 0 is equivalent to eps > E'/E'_Q at the solved shift; smaller eps
    raises ``InfeasibleError`` carrying the minimum feasible value.  The
    low-energy window is a caller-side precondition, checked separately via
    :func:`check_energy_window` (the constants themselves do not need it).
    """
    frame = epsilon_shift_solve(spectrum, energy, epsilon, dim=dim)
    min_eps = frame.e_prime / frame.e_prime_quad  # the ratio E'/E'_Q
    ratio = min_eps / epsilon
    if ratio >= 1.0:  # exactly where 1 - ratio^2 <= 0, whose square may overflow
        raise InfeasibleError(
            f"epsilon {epsilon} is too small: constant a requires epsilon > {min_eps}",
            epsilon=epsilon,
            min_feasible_epsilon=min_eps,
            shift=frame.shift,
        )
    # a Python float's ** raises OverflowError where a NumPy float's gives inf
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            a = 3040.0 * frame.e_prime_max ** 2 / (frame.e_prime ** 2 * (1.0 - ratio ** 2))
        except OverflowError:
            a = math.inf
    if not math.isfinite(a):
        raise NumericalError(
            f"constant a is beyond the float range at E'_max = {frame.e_prime_max} "
            f"and E' = {frame.e_prime}"
        )
    return ConcentrationConstants(frame=frame, epsilon=epsilon, a=a, c=_tail_constant(frame))


def tail_log_bound(constants: ConcentrationConstants, t: float) -> float:
    """Natural log of a * n^(3/2) * exp(-c n (t - 1/(4n))^2 + 2 eps sqrt(n))."""
    if t < 0.0:
        raise DomainError("deviation t must be nonnegative")
    n = constants.n
    return (
        math.log(constants.a)
        + 1.5 * math.log(n)
        - constants.c * n * (t - 1.0 / (4.0 * n)) ** 2
        + 2.0 * constants.epsilon * math.sqrt(n)
    )


def tail_log10_bound(constants: ConcentrationConstants, t: float) -> float:
    return tail_log_bound(constants, t) / math.log(10.0)


def tail_bound(constants: ConcentrationConstants, t: float) -> float:
    """Raw right-hand side of the tail inequality for the event |f - median| > lam*t.

    The bound does not depend on the Lipschitz constant lam of f (it only
    rescales the event threshold), may exceed 1, and is non-increasing in t
    for t >= 1/(4n).  Callers clamp for display.
    """
    return _exp_or_inf(tail_log_bound(constants, t))


def _log_floor(cand: ConcentrationConstants, t: float, eps: float) -> float:
    """A lower bound, less a margin, on the log tail bound at ``t`` of ``eps``
    if feasible, from a feasible ``cand``: -inf unless eps >= cand.epsilon.

    The multiplier m grows with eps and the residual m E_H(x) - (E+x) with x
    and m, so the exact shifts obey s' <= s.  For E <= e_max, a's denominator
    is at most 1, (e_max+s)/(E+s) falls and c = 3(e_min+s)/(32(E+s)) rises
    with s: log bound(eps) >= log 3040 + 1.5 log n + 2 eps sqrt(n) + G(s),
    G(s) = 2 log((e_max+s)/(E+s)) - c n T^2, T = t - 1/(4n).  The solver stops
    at |r| <= tol E' on a slope r' = m E_H^2/E_Q^2 - 1 >= m - 1, so a computed
    shift lies within delta = 2 tol E'/(m-1) of its root (the 2 covers the
    level sums' rounding), and eps has a delta no larger than cand's.  The
    margin is |G'(s)| 2 delta plus 64 ulp of the terms' magnitudes.
    """
    frame, n = cand.frame, cand.n
    m = _multiplier(cand.epsilon, n)
    if eps < cand.epsilon or frame.energy > frame.base.e_max or m <= 1.0:
        return -math.inf
    ntt = n * (t - 1.0 / (4.0 * n)) ** 2
    log_a = math.log(3040.0) + 2.0 * math.log(frame.e_prime_max / frame.e_prime)
    terms = (log_a, 1.5 * math.log(n), -cand.c * ntt, 2.0 * eps * math.sqrt(n))
    # |G'(s)| E' = 2 (e_max - E)/E'_max + (3/32 - c) n T^2
    slope = 2.0 * (frame.base.e_max - frame.energy) / frame.e_prime_max + (3 / 32 - cand.c) * ntt
    margin = slope * 4.0 * _SHIFT_TOL / (m - 1.0) + 64.0 * math.ulp(sum(map(abs, terms)))
    return sum(terms) - margin


def _infeasible_by_means(eps: float, n: int) -> bool:
    """Whether eps <= m (1 - 1e-9) at n, a point that :func:`optimize_epsilon`
    shows infeasible without a solve."""
    return eps <= _multiplier(eps, n) * (1.0 - 1e-9)


def optimize_epsilon(
    spectrum: Spectrum,
    energy: float,
    t: float,
    grid: Sequence[float],
    dim: int | None = None,
) -> ConcentrationConstants:
    """Grid scan for the feasible epsilon minimizing the tail bound at ``t``.

    The bound couples to epsilon through the shift solve, so a robust scan is
    used instead of smooth optimization.  Ties keep the earliest grid point;
    an all-infeasible grid raises with a per-point report.  Every solve shares
    the level sums memoised on ``spectrum``.  A point that cannot win, by the
    last feasible solve's :func:`_log_floor`, is not solved.

    Nor, unless no point is feasible, is a point with eps <= m (1 - 1e-9),
    m = (1 + 1/n)(1 + eps/sqrt(n)): it is infeasible, as is every eps <= 1 on
    any spectrum.  The solver stops at |m E'_H - E'| <= tol E', so E'/E'_H >=
    m/(1 + tol), and E'_Q <= E'_H (power means), so E'/E'_Q >= m/(1 + tol)
    > eps.  The stopping test and the constants see the same rounded E' and
    E'_k, so the margin need only cover tol = 1e-12 and the rounding of the
    level sums.  Such points are solved, in grid order, only to report an
    all-infeasible grid, or before a later point's NumericalError is raised,
    so that the error raised is the first in grid order.  The result and the
    errors are those of solving every point, except that a passed-over point
    whose solve would not converge no longer stops a scan with a feasible
    point.
    """
    if len(grid) == 0:
        raise DomainError("epsilon grid must be nonempty")
    _require_finite_energy(energy)  # these two would fail every grid point alike
    n = _checked_dim(spectrum, dim)
    points = list(map(float, grid))
    messages: list[str | None] = [None] * len(points)  # why each failing solve failed
    passed: list[int] = []  # indices of the points shown infeasible, not yet solved

    def solve(i: int) -> ConcentrationConstants | None:
        try:
            return constants_for(spectrum, energy, points[i], dim=dim)
        except (InfeasibleError, DomainError) as exc:
            messages[i] = str(exc)
            return None

    best: ConcentrationConstants | None = None
    best_log = math.inf
    last: ConcentrationConstants | None = None  # the last feasible solve
    for i, eps in enumerate(points):
        if _infeasible_by_means(eps, n):
            passed.append(i)
            continue
        if last is not None and _log_floor(last, t, eps) > best_log:
            continue
        try:
            cand = solve(i)
        except NumericalError:
            for j in passed:
                solve(j)
            raise
        if cand is None:
            continue
        log_value = tail_log_bound(cand, t)
        if log_value < best_log:
            best, best_log = cand, log_value
        last = cand
    if best is None:
        for i in passed:
            solve(i)
        # in grid order; a repeated point keeps its first place
        failures = {eps: msg for eps, msg in zip(points, messages) if msg is not None}
        raise InfeasibleError("no feasible epsilon in grid", grid=points, failures=failures)
    return best


def median_window(constants: ConcentrationConstants, lam_n: float) -> float:
    """Half-width of |median - ellipsoid mean| for a lam_n-Lipschitz function."""
    n = constants.n
    ratio = constants.frame.e_prime / constants.frame.e_prime_min
    # the O(n^{-1/2}) combination eps/sqrt(n) + ln(2 a n^{3/2})/(2n)
    order = constants.epsilon / math.sqrt(n) + math.log(2.0 * constants.a * n ** 1.5) / (2.0 * n)
    return lam_n * (3.0 / (8.0 * n) + 15.0 * math.sqrt(ratio * order))


def ellipsoid_for(frame: EnergyFrame) -> Ellipsoid:
    """Ellipsoid enclosing the ensemble: radius_k = sqrt(E'(1 + 1/(2n))/E'_k).

    Radii are expanded to one entry per dimension; the largest radius sits on
    the axis of the smallest shifted level.
    """
    factor = frame.e_prime * (1.0 + 1.0 / (2.0 * frame.dim))
    return Ellipsoid(radii=np.sqrt(factor / frame.expanded_levels))
