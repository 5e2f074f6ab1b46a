"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""
import contextlib
import io
import json
import math
import time

import numpy as np
import pytest
from scipy import integrate, optimize

import conftest

from mee import (
    RngSpec,
    Spectrum,
    BipartiteSpectrum,
    binary_entropy,
    constants_for,
    detmax_state,
    harmonic_shift_solve,
    hall_radial_density,
    oracle_manifold_sample,
    qubit_canonical,
    qubit_exact_tail,
    qubit_exponential_bound,
    reduced_dm_report,
    rho_c_flat_env,
    sample_gaussian_ensemble,
    spin_concentration_probe,
    spin_spectrum,
    SpinEnsembleSpec,
    compute_means,
    epsilon_shift_solve,
)
from mee.cli import run
from mee.experiments import moment_report_streamed, subbatch_mean_error
from mee.sampling import default_shell_width

SQRT7 = math.sqrt(7.0)
RHO_LIMIT = np.array([(5.0 + SQRT7) / 12.0, 2.0 * (4.0 - SQRT7) / 12.0, (-1.0 + SQRT7) / 12.0])


def report(number: int, label: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {number:02d} {label}: {verdict}{suffix}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, flush=True)


def test_criterion_01_example_constants():
    """Uniform {1,2,3} spectrum: shift in (-1/2, 0), c >= 3/64, 0 < a < 30830."""
    t0 = time.perf_counter()
    ok = True
    for n in (8193, 30000, 120000, 999999):
        spec = Spectrum((1.0, 2.0, 3.0), (n // 3,) * 3)
        k = constants_for(spec, 1.5, 2.0)
        ok &= -0.5 < k.frame.shift < 0.0
        ok &= k.c >= 3.0 / 64.0
        ok &= 0.0 < k.a < 30830.0
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(1, "example tail-bound constants", ok, f"{elapsed:.3f}s")
    assert ok


def test_criterion_02_canonical_matrix():
    """Limit matrix to 1e-12; finite-n deviation <= 4/sqrt(n); shift bracket."""
    t0 = time.perf_counter()
    limit = detmax_state((1.0, 2.0, 3.0), 1.5, tol=1e-14)
    ok = bool(np.max(np.abs(limit.diagonal - RHO_LIMIT)) <= 1e-12)
    lower_coef = 4.0 * (35.0 + 16.0 * SQRT7) / 63.0
    for n in (829, 2048, 8193, 100000):
        rho_n = rho_c_flat_env((1.0, 2.0, 3.0), 1.5, 2.0, n)
        ok &= float(np.linalg.norm(rho_n.diagonal - RHO_LIMIT)) <= 4.0 / math.sqrt(n)
        shift = epsilon_shift_solve(Spectrum((1.0, 2.0, 3.0)), 1.5, 2.0, dim=n).shift
        ok &= (-4.0 + SQRT7) / 3.0 - lower_coef / math.sqrt(n) < shift < (-4.0 + SQRT7) / 3.0
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(2, "canonical reduced matrix", ok, f"{elapsed:.3f}s")
    assert ok


def test_criterion_03_shift_solver():
    """Two-level closed forms to 1e-10; 1000 random spectra converge to 1e-12."""
    ok = abs(harmonic_shift_solve(Spectrum((1.0, 3.0)), 1.5)) <= 1e-10
    ok &= abs(harmonic_shift_solve(Spectrum((1.0, 3.0)), 1.8) - 3.0) <= 1e-10
    rng = np.random.default_rng(20240802)
    solved = 0
    worst = 0.0
    while solved < 1000:
        k = int(rng.integers(2, 9))
        levels = rng.uniform(-2.0, 8.0, size=k)
        degs = tuple(int(d) for d in rng.integers(1, 6, size=k))
        spec = Spectrum(tuple(levels), degs)
        means = compute_means(spec)
        if means.e_arith - means.e_min < 1e-6:
            continue
        u = rng.uniform(0.02, 0.98)
        energy = means.e_min + u * (means.e_arith - means.e_min)
        if energy <= means.e_min:
            continue
        shift = harmonic_shift_solve(spec, energy)  # must converge
        weights = np.asarray(spec.degeneracies) / spec.n
        harm = 1.0 / np.sum(weights / (np.asarray(spec.levels) + shift))
        rel = abs(harm - (energy + shift)) / abs(energy + shift)
        worst = max(worst, rel)
        solved += 1
    ok &= worst <= 1e-12
    report(3, "shift solver", bool(ok), f"worst residual {worst:.2e}")
    assert ok


def test_criterion_04_gaussian_moments():
    """n = 4096, 1e5 samples: means at 5 sigma, variances within 10%."""
    spec = Spectrum((1.0, 2.0, 3.0), (1366, 1365, 1365))
    t0 = time.perf_counter()
    rep = moment_report_streamed(spec, 1.5, 100_000, RngSpec(seed=408))
    elapsed = time.perf_counter() - t0
    by_name = {m.name: m for m in rep.measured}
    ok = all(
        by_name[name].passed
        for name in ("mean_norm_sq", "mean_shifted_energy", "var_shifted_energy", "var_norm_sq")
    )
    ok &= elapsed < 30.0
    report(4, "gaussian moment identities", bool(ok), f"{elapsed:.1f}s")
    assert ok


def test_criterion_05_oracle_vs_gaussian():
    """n = 3: weighted oracle occupations match the gaussian sampler within
    5 combined standard errors, stable under shell halving."""
    spec = Spectrum((1.0, 2.0, 3.0))
    eta = default_shell_width(spec)
    rng_o = RngSpec(seed=505, stream=0)
    rng_h = RngSpec(seed=505, stream=1)
    rng_g = RngSpec(seed=505, stream=2)
    count = 10_000
    batch_eta = oracle_manifold_sample(spec, 1.5, eta, count, 5 * 10**6, rng_o)
    batch_half = oracle_manifold_sample(spec, 1.5, eta / 2.0, count, 10**7, rng_h)
    gauss = sample_gaussian_ensemble(spec, 1.5, count, rng_g)
    p_eta = np.abs(batch_eta.states) ** 2
    p_half = np.abs(batch_half.states) ** 2
    p_gauss = np.abs(gauss.states) ** 2
    ok = True
    details = []
    for k in range(3):
        m_o, se_o = subbatch_mean_error(p_eta[:, k], batch_eta.weights)
        m_h, se_h = subbatch_mean_error(p_half[:, k], batch_half.weights)
        m_g, se_g = subbatch_mean_error(p_gauss[:, k])
        ok &= abs(m_o - m_g) <= 5.0 * math.hypot(se_o, se_g)
        ok &= abs(m_o - m_h) <= 5.0 * math.hypot(se_o, se_h)
        details.append(f"k={k}: |oracle-gauss|={abs(m_o - m_g):.2e}")
    report(5, "oracle vs gaussian agreement", bool(ok), "; ".join(details))
    assert ok


def test_criterion_06_typical_reduced_state():
    """n = 3*2048, 1e4 samples: mean reduced-state deviation under the
    analytic envelope scale 3*sqrt(8)*59/n^(1/4)."""
    n = 3 * 2048
    bs = BipartiteSpectrum((1.0, 2.0, 3.0), (0.0,) * 2048)
    t0 = time.perf_counter()
    rep, _ = reduced_dm_report(bs, 1.5, 2.0, 10_000, RngSpec(seed=606))
    elapsed = time.perf_counter() - t0
    mean_dev = next(m for m in rep.measured if m.name == "mean_hs_deviation")
    envelope = 3.0 * math.sqrt(8.0) * 59.0 / n**0.25
    ok = mean_dev.value < envelope
    ok &= bool(mean_dev.passed)  # also under the tighter sqrt(8)|A|*delta scale
    report(
        6,
        "typical reduced state",
        bool(ok),
        f"mean dev {mean_dev.value:.4f} < {envelope:.1f}; {elapsed:.1f}s",
    )
    assert ok


def test_criterion_07_qubit_exact_tail():
    """Closed form vs 2D quadrature to 1e-6; exponential bound dominates."""
    cases = ((1.0, 0.0, 0.25, 10), (1.0, 0.0, 0.25, 100), (3.0, 1.0, 1.6, 50))
    ok = True
    worst = 0.0
    for e1, e2, energy, dim_b in cases:
        disc = 4.0 * (e1 - energy) * (energy - e2) / (e1 - e2) ** 2
        rz2 = 1.0 - disc
        radius = math.sqrt(disc)

        def density(s, phi):
            return s * hall_radial_density(dim_b, math.sqrt(s * s + rz2))

        for eps in (0.1, 0.2, 0.5):
            num, _ = integrate.dblquad(density, 0.0, 2 * math.pi, eps, radius, epsabs=1e-13)
            den, _ = integrate.dblquad(density, 0.0, 2 * math.pi, 0.0, radius, epsabs=1e-13)
            got = qubit_exact_tail(e1, e2, energy, dim_b, eps)
            diff = abs(got - num / den)
            worst = max(worst, diff)
            ok &= diff <= 1e-6
        for eps in np.linspace(0.0, 1.2, 25):
            exact = qubit_exact_tail(e1, e2, energy, dim_b, float(eps))
            bound = qubit_exponential_bound(e1, e2, energy, dim_b, float(eps))
            ok &= exact <= bound + 1e-12
    report(7, "qubit exact tail", bool(ok), f"worst quadrature gap {worst:.1e}")
    assert ok


@pytest.mark.filterwarnings("ignore:Values in x were outside bounds")
def test_criterion_08_determinant_maximizer():
    """detmax matches an SLSQP constrained maximizer to 1e-6 componentwise;
    the two-level case equals the closed-form canonical state."""
    rng = np.random.default_rng(808)
    ok = True
    worst = 0.0
    checked = 0
    while checked < 20:
        dim_a = int(rng.integers(3, 6))
        levels = np.sort(rng.uniform(0.2, 5.0, size=dim_a))
        if levels[-1] - levels[0] < 0.3:
            continue
        means = compute_means(Spectrum(tuple(levels)))
        energy = float(means.e_min + rng.uniform(0.15, 0.85) * (means.e_arith - means.e_min))
        got = detmax_state(tuple(levels), energy).diagonal
        res = optimize.minimize(
            lambda x: -np.sum(np.log(x)),
            np.full(dim_a, 1.0 / dim_a),
            jac=lambda x: -1.0 / x,
            constraints=[
                {"type": "eq", "fun": lambda x: x.sum() - 1.0},
                {"type": "eq", "fun": lambda x, lv=levels: float(np.dot(x, lv)) - energy},
            ],
            bounds=[(1e-12, 1.0)] * dim_a,
            method="SLSQP",
            options={"maxiter": 1000, "ftol": 1e-14},
        )
        if not res.success:
            ok = False
            break
        gap = float(np.max(np.abs(got - res.x)))
        worst = max(worst, gap)
        ok &= gap <= 1e-6
        checked += 1
    two = detmax_state((1.0, 0.0), 0.25).diagonal
    closed = qubit_canonical(1.0, 0.0, 0.25).diagonal
    ok &= bool(np.max(np.abs(two - closed)) <= 1e-12)
    report(8, "determinant maximizer", bool(ok), f"worst entry gap {worst:.1e}")
    assert ok


def test_criterion_09_spin_probe():
    """m = 10 probe: occupation floor and entropy count hold; the tail-bound
    constant c matches an independent bisection of the harmonic shift and
    sits within a factor 2 of its documented scale (3/32) * 2^-10 / (1 - 2 alpha)."""
    spec = SpinEnsembleSpec(m=10, alpha=0.3, gamma=0.4)
    rep = spin_concentration_probe(spec, 10_000, RngSpec(seed=909))
    by_name = {m.name: m for m in rep.measured}
    occ = by_name["occupation_below_cut"]
    ok_occ = occ.value >= 1.0 - 0.3 / 0.4 - 5.0 * occ.std_error
    count = by_name["low_level_count"]
    ok_count = count.value == 176.0 and count.value <= 2.0 ** (
        10.0 * binary_entropy(0.4) + math.log2(10.0)
    )
    c = by_name["tail_constant_c"].value
    spins = spin_spectrum(10)
    energy = 0.3 * 10
    s = conftest.bisect_shift(spins.levels, np.array(spins.degeneracies) / spins.n, energy)
    c_bisect = 3.0 * s / (32.0 * (energy + s))
    # the ground level alone gives (3/32) * 2^-10, a strict lower bound on c;
    # the excited levels' share 2 alpha of the harmonic sum scales it by 1/(1 - 2 alpha)
    c_reference = (3.0 / 32.0) * 2.0 ** -10 / (1.0 - 2.0 * 0.3)
    ratio = c / c_reference
    ok_c = 0.5 <= ratio <= 2.0
    ok = ok_occ and ok_count and ok_c
    report(
        9,
        "spin no-concentration probe",
        bool(ok),
        f"L={occ.value:.3f}>=0.25-5se, count=176, c ratio={ratio:.2f} to "
        f"(3/32)*2^-10/(1-2*alpha), factor-2 check {'passes' if ok_c else 'fails'}",
    )
    assert ok_occ and ok_count
    assert c == pytest.approx(c_bisect, rel=1e-9), (
        "computed c is %.15e, the bisection oracle gives %.15e" % (c, c_bisect)
    )
    assert ok_c, (
        "computed c is %.3e, %.2fx the (3/32)*2^-10/(1-2*alpha) reference, "
        "outside the required factor 2" % (c, ratio)
    )


def test_criterion_10_determinism(tmp_path):
    """verify runs are byte-identical under identical seeds and different --workers."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"levels": [1.0, 2.0, 3.0], "degeneracies": [40, 40, 40]}))
    bip_path = tmp_path / "bip.json"
    bip_path.write_text(json.dumps({"levels_a": [1.0, 2.0, 3.0], "levels_b": [0.0] * 32}))
    blobs = {}
    for tag, workers in (("w1", "1"), ("w3", "3")):
        out_m = tmp_path / f"moments_{tag}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = run(
                [
                    "verify", "--experiment", "moments",
                    "--spectrum", str(spec_path),
                    "--energy", "1.5",
                    "--count", "3000",
                    "--seed", "1010",
                    "--workers", workers,
                    "--out-dir", str(out_m),
                ]
            )
        assert code == 0
        out_r = tmp_path / f"reduced_{tag}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = run(
                [
                    "verify", "--experiment", "reduced-dm",
                    "--bipartite", str(bip_path),
                    "--energy", "1.5",
                    "--epsilon", "2",
                    "--count", "600",
                    "--seed", "1010",
                    "--workers", workers,
                    "--out-dir", str(out_r),
                ]
            )
        assert code == 0
        blobs[tag] = (
            (out_m / "report.json").read_bytes(),
            (out_r / "report.json").read_bytes(),
        )
    ok = blobs["w1"] == blobs["w3"]
    report(10, "worker-count determinism", ok)
    assert ok
