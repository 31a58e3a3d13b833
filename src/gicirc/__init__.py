"""Gaussian-optics simulation of quantum-enhanced optical interferometers.

Exact mean/covariance propagation through Gaussian elements (parametric
amplifiers, beamsplitters, phase shifters, loss channels), builders and
closed-form sensitivity theory for squeezed-light and nested-amplifier
interferometers, loss-plane and Wigner analysis, and a lossy-amplifier
noise model with parameter fitting.
"""

__version__ = "0.1.0"

from .errors import (
    CircuitError,
    GicircError,
    InstabilityError,
    ModeError,
    NoSolutionError,
    PhysicalityError,
)
from .states import (
    Coherent,
    ElementMap,
    GaussianState,
    QuadratureStats,
    Thermal,
    Vacuum,
    apply,
    make_state,
    marginal,
    quadrature_stats,
    symplectic_form,
    wigner,
)
from .elements import (
    LossSpec,
    PaGain,
    beamsplitter,
    gain_from_qng,
    loss_channel,
    parametric_amplifier,
    phase_shift,
    qng_of,
    single_mode_squeezer,
)
from .noise_model import (
    CouplingFactors,
    NoisyPaParams,
    coupling_factors,
    kappa_from_qng,
    noisy_pa,
    quantum_noise_gain,
)
from .circuits import (
    CircuitSpec,
    Detection,
    detect_stats,
    parse_circuit,
    propagate_mean,
    serialize_circuit,
    simulate,
)
from .interferometers import (
    OutputReport,
    SisniParams,
    SqMziParams,
    build_sisni,
    build_sq_mzi,
    engine_report,
    mean_signal_and_variance,
    phase_variance_closed,
    snr_sisni_closed,
    snr_sq_mzi_closed,
    sql_baseline,
)
from .analysis import (
    Axis,
    LinearFit,
    SweepGrid,
    WignerPanel,
    advantage_db,
    fit_snr_vs_power,
    from_db,
    loss_plane,
    slope_vs_theta,
    snr_gain_db,
    to_db,
    wigner_panel,
)
from .noise_fit import (
    FitResult,
    advantage_vs_qng,
    fit_noise_model,
    load_fit_data,
)

__all__ = [
    "__version__",
    # errors
    "GicircError", "PhysicalityError", "InstabilityError", "NoSolutionError", "CircuitError",
    "ModeError",
    # states
    "GaussianState", "ElementMap", "QuadratureStats", "Vacuum", "Coherent", "Thermal",
    "symplectic_form", "make_state", "apply", "quadrature_stats", "wigner", "marginal",
    # elements
    "PaGain", "LossSpec", "parametric_amplifier", "single_mode_squeezer", "beamsplitter",
    "phase_shift", "loss_channel", "qng_of", "gain_from_qng",
    # noise model
    "NoisyPaParams", "CouplingFactors", "coupling_factors", "noisy_pa",
    "quantum_noise_gain", "kappa_from_qng",
    # circuits
    "CircuitSpec", "Detection", "parse_circuit", "serialize_circuit", "simulate",
    "propagate_mean", "detect_stats",
    # interferometers
    "SqMziParams", "SisniParams", "OutputReport", "build_sq_mzi", "build_sisni",
    "snr_sq_mzi_closed", "snr_sisni_closed", "phase_variance_closed",
    "mean_signal_and_variance", "engine_report", "sql_baseline",
    # analysis
    "Axis", "SweepGrid", "LinearFit", "WignerPanel", "to_db", "from_db",
    "advantage_db", "snr_gain_db", "loss_plane", "slope_vs_theta", "wigner_panel",
    "fit_snr_vs_power",
    # noise fit
    "FitResult", "advantage_vs_qng", "fit_noise_model", "load_fit_data",
]
