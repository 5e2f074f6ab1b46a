"""Shared independent oracles for the test suite.

Everything here deliberately avoids the library's own solver/sampler code
paths: plain bisection for shift equations, quadrature over an explicit
parametrization for three-level manifold moments (and, in log space, for
the occupations at any degeneracy), and closed forms where two-level
algebra permits.  The ``grouped_calls`` fixture counts how often
the library groups a level list, ``epsilon_solves`` how often it solves
the epsilon shift, and ``shift_roots`` how often it runs the shift
solver's root finder.  ``package_env`` is the environment of a ``python -m
mee`` subprocess.  ``ReferenceShellScreen`` is the shell oracle's exact
test of a whole chunk, which the oracle's test of each row block must match
bit for bit.
"""
from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from scipy import integrate, optimize

import mee
import mee.bounds
import mee.canonical
import mee.spectrum
from mee import Spectrum
from mee.spectrum import _dot

# property tests draw the same examples on every run
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

# PASS/FAIL lines from the acceptance suite, echoed after the run so they
# survive pytest's stdout capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def package_env() -> dict:
    """The environment of a ``python -m mee`` subprocess: this one's, with
    ``PYTHONPATH`` the directory of the imported ``mee``, so the subprocess
    runs the package under test."""
    return {**os.environ, "PYTHONPATH": str(Path(mee.__file__).resolve().parents[1])}


@pytest.fixture
def grouped_calls(monkeypatch):
    """Sizes of the level lists passed to ``Spectrum.grouped``, one per call."""
    calls: list[int] = []
    original = Spectrum.grouped.__func__

    def counting(cls, levels):
        calls.append(len(levels))
        return original(cls, levels)

    monkeypatch.setattr(Spectrum, "grouped", classmethod(counting))
    return calls


@pytest.fixture
def epsilon_solves(monkeypatch):
    """Spectrum sizes passed to ``epsilon_shift_solve``, one per call, counted
    at the bindings ``bounds`` and ``canonical`` call it through."""
    calls: list[int] = []
    original = mee.bounds.epsilon_shift_solve

    def counting(spectrum, *args, **kwargs):
        calls.append(spectrum.n)
        return original(spectrum, *args, **kwargs)

    for module in (mee.bounds, mee.canonical):
        monkeypatch.setattr(module, "epsilon_shift_solve", counting)
    return calls


@pytest.fixture
def shift_roots(monkeypatch):
    """The (energy, multiplier) of each call of ``mee.spectrum._shift_root``,
    the root finder of both shift solvers; each call still solves."""
    calls: list[tuple[float, float]] = []
    original = mee.spectrum._shift_root

    def logging(spectrum, energy, multiplier, tol):
        calls.append((energy, multiplier))
        return original(spectrum, energy, multiplier, tol)

    monkeypatch.setattr(mee.spectrum, "_shift_root", logging)
    return calls


def random_spectrum(seed: int, size: int) -> tuple[Spectrum, float]:
    """Uniform levels on [0, 10) with degeneracies 1-19, and the energy 70%
    of the way from the lowest level to the arithmetic mean, where the
    epsilon grid is feasible from 2 up."""
    rng = np.random.default_rng(seed)
    spec = Spectrum(tuple(rng.uniform(0.0, 10.0, size).tolist()),
                    tuple(rng.integers(1, 20, size).tolist()))
    lv, w = np.asarray(spec.levels), np.asarray(spec.degeneracies, dtype=float)
    return spec, spec.e_min + 0.7 * (float(w @ lv / w.sum()) - spec.e_min)


def bisect_shift(levels, weights, energy, multiplier=1.0, iters=200):
    """Pure-bisection root of multiplier * E_H({E_k + x}) - (E + x)."""
    levels = np.asarray(levels, dtype=float)
    weights = np.asarray(weights, dtype=float)

    def resid(x):
        return multiplier / np.sum(weights / (levels + x)) - (energy + x)

    lo = -levels.min() + 1e-13 * max(levels.max() - levels.min(), 1.0)
    hi = lo + max(levels.max() - levels.min(), 1.0)
    while resid(hi) <= 0:
        hi = lo + 2 * (hi - lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if resid(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def three_level_occupations(levels, degeneracies, energy):
    """Exact manifold means of the block occupations x_j = sum_{k in j} |psi_k|^2
    of a 3-level spectrum, by 1-D quadrature in log space.

    On {sum x_j = 1, sum E_j x_j = E} the occupations are Dirichlet(d)
    restricted to the plane, times the coarea factor, the gradient norm
    g(x) = 2 sqrt(sum E_j^2 x_j - E^2).  For 3 levels the plane cuts the
    simplex in a segment x(t) = p0 + t d, so the means are ratios of 1-D
    integrals of prod x_j^(d_j - 1) g(x).  The density is evaluated as
    exp(log density - its peak) and the peak is a breakpoint of the
    quadrature, so that any degeneracy works, also where the density is a
    narrow spike.
    """
    lv = np.asarray(levels, dtype=float)
    dg = np.asarray(degeneracies, dtype=float)
    d = np.array([lv[1] - lv[2], lv[2] - lv[0], lv[0] - lv[1]])
    p0, *_ = np.linalg.lstsq(np.array([np.ones(3), lv]), np.array([1.0, float(energy)]),
                             rcond=None)
    t_lo = max(-pk / dk for pk, dk in zip(p0, d) if dk > 0)
    t_hi = min(-pk / dk for pk, dk in zip(p0, d) if dk < 0)

    def log_density(t):
        x = np.maximum(p0 + t * d, 0.0)
        with np.errstate(divide="ignore"):
            powers = np.where(dg > 1.0, (dg - 1.0) * np.log(x), 0.0)
            return powers.sum() + 0.5 * np.log(max(lv * lv @ x - energy * energy, 0.0))

    peak = optimize.minimize_scalar(lambda t: -log_density(t), bounds=(t_lo, t_hi),
                                    method="bounded", options={"xatol": 1e-12}).x
    top = log_density(peak)

    def weight(t, k=None):
        w = np.exp(log_density(t) - top)
        return w if k is None else w * (p0[k] + t * d[k])

    rule = dict(points=[peak], epsabs=0.0, epsrel=1e-12, limit=500)
    z, _ = integrate.quad(weight, t_lo, t_hi, **rule)
    return np.array([integrate.quad(weight, t_lo, t_hi, args=(k,), **rule)[0] / z
                     for k in range(3)])


class ReferenceShellScreen:
    """Drop-in for ``mee.sampling._shell_screen``: the exact test on every row
    of a block of proposals, written independently.  It takes |psi|^2, row
    sums and energies of all rows, keeps those within ``eta`` of ``energy``,
    and returns them normalized, with their energies and gradient norms.
    Like the production screen it only tests: the oracle's draw makes the
    proposals and the oracle weights them.  With the block budget
    ``mee.sampling._NORM_BLOCK_SCALARS`` at least a chunk, each block is a
    whole chunk and this is the exact test of every chunk.  Its sums over
    levels are those of production, ``mee.spectrum._dot``, so that the two
    can be compared bit for bit."""

    def __init__(self, levels, energy, eta):
        self.levels, self.energy, self.eta = levels, energy, eta

    def __call__(self, raw):
        levels = self.levels
        p = np.abs(raw) ** 2
        nrm2 = p.sum(axis=1)
        e1 = _dot(p, levels) / nrm2
        mask = np.abs(e1 - self.energy) < self.eta
        e1 = e1[mask]
        nrm2 = nrm2[mask]
        p_acc = p[mask] / nrm2[:, None]
        e2 = _dot(p_acc, levels ** 2)
        grad = 2.0 * np.sqrt(np.maximum(e2 - e1 * e1, 0.0))
        keep = grad > 0.0
        return raw[mask][keep] / np.sqrt(nrm2[keep, None]), e1[keep], grad[keep]


def three_level_manifold_moments(levels, energy):
    """Hausdorff-measure averages of (|psi_1|^2, |psi_2|^2, |psi_3|^2) on the
    manifold {sum p_k = 1, sum p_k E_k = E} fibered by phase tori.

    Derived from first principles: parametrize the feasible segment
    p(t) = p0 + t*d, where d spans the null space of the two constraints;
    the volume element is the fiber torus volume sqrt(p1 p2 p3) times the
    arc length sqrt(sum d_k^2/(4 p_k)), i.e. proportional to
    sqrt(sum_k d_k^2 prod_{j != k} p_j).  Independent of any shell or
    gradient-norm argument.
    """
    e1, e2, e3 = map(float, levels)
    d = np.array([e2 - e3, e3 - e1, e1 - e2])
    a = np.array([[1.0, 1.0, 1.0], [e1, e2, e3]])
    p0, *_ = np.linalg.lstsq(a, np.array([1.0, float(energy)]), rcond=None)

    # Admissible t-interval: p0 + t d >= 0 componentwise.
    t_lo, t_hi = -np.inf, np.inf
    for pk, dk in zip(p0, d):
        if dk > 0:
            t_lo = max(t_lo, -pk / dk)
        elif dk < 0:
            t_hi = min(t_hi, -pk / dk)
    assert t_lo < t_hi

    def p_of(t):
        return p0 + t * d

    def density(t):
        p = p_of(t)
        return np.sqrt(
            d[0] ** 2 * p[1] * p[2] + d[1] ** 2 * p[0] * p[2] + d[2] ** 2 * p[0] * p[1]
        )

    z, _ = integrate.quad(density, t_lo, t_hi)
    moments = []
    for k in range(3):
        num, _ = integrate.quad(lambda t, k=k: p_of(t)[k] * density(t), t_lo, t_hi)
        moments.append(num / z)
    return np.array(moments)


def weighted_mean_and_error(values, weights=None, parts=32):
    """Reference implementation of sub-batch errors for cross-checks."""
    values = np.asarray(values, dtype=float)
    if weights is None:
        weights = np.ones_like(values)
    weights = np.asarray(weights, dtype=float)
    mean = float(np.dot(weights, values) / weights.sum())
    edges = np.linspace(0, values.size, parts + 1, dtype=int)
    subs = [
        np.dot(weights[a:b], values[a:b]) / weights[a:b].sum()
        for a, b in zip(edges[:-1], edges[1:])
        if b > a
    ]
    subs = np.asarray(subs)
    return mean, float(subs.std(ddof=1) / np.sqrt(subs.size))
