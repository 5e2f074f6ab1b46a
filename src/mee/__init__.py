"""Numerical toolkit for quantum states with a fixed energy expectation value.

Core objects: spectra and energy-shift solvers (:mod:`mee.spectrum`),
concentration constants and tail bounds (:mod:`mee.bounds`), canonical
reduced density matrices (:mod:`mee.canonical`), ensemble samplers
(:mod:`mee.sampling`), and Monte Carlo verification harnesses
(:mod:`mee.experiments`).
"""
from .bounds import (
    ConcentrationConstants,
    Ellipsoid,
    WindowCheck,
    check_energy_window,
    constants_for,
    ellipsoid_for,
    flip_for_high_energy,
    median_window,
    optimize_epsilon,
    tail_bound,
    tail_log10_bound,
)
from .canonical import (
    BipartiteSpectrum,
    DensityMatrix,
    delta_deviation,
    detmax_state,
    hall_radial_density,
    qubit_canonical,
    qubit_exact_tail,
    qubit_exponential_bound,
    reduced_dm_tail,
    rho_c_bipartite,
    rho_c_flat_env,
)
from .errors import (
    DomainError,
    InfeasibleError,
    LowAcceptanceWarning,
    MeeError,
    NumericalError,
    ParseError,
)
from .experiments import (
    ExperimentReport,
    Measured,
    SpinEnsembleSpec,
    TailCurve,
    binary_entropy,
    moment_report_streamed,
    reduced_dm_report,
    spin_concentration_probe,
    spin_spectrum,
    tail_report,
)
from .sampling import (
    RngSpec,
    SampleBatch,
    default_shell_width,
    gradient_norm,
    oracle_manifold_sample,
    sample_gaussian_ensemble,
    sample_sphere,
)
from .spectrum import (
    EnergyFrame,
    Means,
    Spectrum,
    compute_means,
    harmonic_frame,
    harmonic_shift_solve,
    epsilon_shift_solve,
)

__version__ = "0.1.0"
