"""Mean-field optics and matter-wave diffraction of a dense two-level gas.

The package covers one physical story end to end: a cold, dense cloud
of two-level atoms in far-detuned laser light, where the local-field
correction makes the medium response and the light-induced potential
density dependent. Modules:

  units     parameter sets, unit conversion, parameter-file parsing
  optics    polarizability, susceptibility, refractive index, local detuning
  models    effective potentials (full and limiting forms), beam-splitter scalars
  bessel    backward-recurrence Bessel evaluation for the order series
  propagate split-step spectral evolution of the 1D matter wave
  diffraction  analytic / phase-mask / propagator diffraction orders
  bloch     two-level coherence and inversion dynamics
  sweep     deterministic one-axis parameter sweeps
  cli       command-line front end (`matteroptics`)

All internal numbers are Gaussian-CGS; SI is accepted and echoed at the
file boundary.
"""

__version__ = "0.1.0"

from .bessel import bessel_j_sequence
from .bloch import (
    BlochRates,
    BlochState,
    BlochTrajectory,
    bloch_rhs,
    integrate,
    local_rabi,
    steady_state,
)
from .diffraction import (
    DiffractionPattern,
    analytic_orders,
    commensurate_grid,
    diffraction_angles,
    effective_wavelength,
    evaluate_routes,
    numeric_orders,
    pattern_discrepancy,
    phase_profile,
    propagator_orders,
)
from .errors import (
    ConfigurationError,
    MatterOpticsError,
    NumericsError,
    ParameterError,
    PhysicsGuardError,
    PoleError,
    SingularDetuningError,
    SteadyStateError,
    SweepError,
    SweepGuardError,
)
from .models import (
    ModelKind,
    RamanNathParams,
    RegimeCheck,
    characteristic_volume,
    effective_potential,
    raman_nath_params,
    regime_checks,
    significant_density,
)
from .optics import (
    MediumResponse,
    contact_interaction_bound,
    local_detuning,
    medium_response,
    polarizability,
    refractive_index_sq,
    susceptibility,
)
from .propagate import (
    Grid1D,
    Laser,
    PropagationConfig,
    WaveState,
    init_gaussian,
    momentum_spectrum,
    norm,
    propagate_through_laser,
    standing_wave,
    standing_wave_intensity,
    step,
)
from .sweep import SweepRow, SweepSpec, run_sweep
from .units import (
    C_LIGHT,
    HBAR,
    ParamFile,
    PhysicalParams,
    detuning,
    params_to_system,
    parse_param_file,
    read_param_file,
)

__all__ = [
    "__version__",
    "C_LIGHT",
    "HBAR",
    "BlochRates",
    "BlochState",
    "BlochTrajectory",
    "ConfigurationError",
    "DiffractionPattern",
    "Grid1D",
    "Laser",
    "MatterOpticsError",
    "MediumResponse",
    "ModelKind",
    "NumericsError",
    "ParamFile",
    "ParameterError",
    "PhysicalParams",
    "PhysicsGuardError",
    "PoleError",
    "PropagationConfig",
    "RamanNathParams",
    "RegimeCheck",
    "SingularDetuningError",
    "SteadyStateError",
    "SweepError",
    "SweepGuardError",
    "SweepRow",
    "SweepSpec",
    "WaveState",
    "analytic_orders",
    "bessel_j_sequence",
    "bloch_rhs",
    "characteristic_volume",
    "commensurate_grid",
    "contact_interaction_bound",
    "detuning",
    "diffraction_angles",
    "effective_potential",
    "effective_wavelength",
    "evaluate_routes",
    "init_gaussian",
    "integrate",
    "local_detuning",
    "local_rabi",
    "medium_response",
    "momentum_spectrum",
    "norm",
    "numeric_orders",
    "params_to_system",
    "parse_param_file",
    "pattern_discrepancy",
    "phase_profile",
    "polarizability",
    "propagate_through_laser",
    "propagator_orders",
    "raman_nath_params",
    "read_param_file",
    "refractive_index_sq",
    "regime_checks",
    "run_sweep",
    "significant_density",
    "standing_wave",
    "standing_wave_intensity",
    "steady_state",
    "step",
    "susceptibility",
]
