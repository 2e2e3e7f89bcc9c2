"""Mean-field optics and matter-wave diffraction of a dense two-level gas.

The package covers one physical story end to end: a cold, dense cloud
of two-level atoms in far-detuned laser light, where the local-field
correction makes the medium response and the light-induced potential
density dependent. Modules:

  units     parameter sets, unit conversion, parameter-file parsing
  optics    polarizability, susceptibility, refractive index, local detuning
  models    effective potentials (full and limiting forms), beam-splitter scalars
  bessel    backward-recurrence Bessel evaluation for the order series
  propagate split-step spectral evolution of the 1D matter wave, order binning
  diffraction  analytic / phase-mask / propagator diffraction orders
  bloch     two-level coherence and inversion dynamics
  sweep     deterministic one-axis parameter sweeps
  cli       command-line front end (`matteroptics`)

All internal numbers are Gaussian-CGS; SI is accepted and echoed at the
file boundary.

The package root exports every public name, but `import matteroptics`
loads no module: a name's module is imported the first time the name is
read (PEP 562), so a caller pays only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# Every exported name, under the module that defines it.
_EXPORTS = {
    "bessel": ("bessel_j_sequence",),
    "bloch": (
        "BlochRates",
        "BlochState",
        "BlochTrajectory",
        "bloch_rhs",
        "integrate",
        "local_rabi",
        "steady_state",
    ),
    "diffraction": (
        "analytic_orders",
        "commensurate_grid",
        "diffraction_angles",
        "effective_wavelength",
        "evaluate_routes",
        "numeric_orders",
        "pattern_discrepancy",
        "phase_profile",
        "propagator_orders",
    ),
    "errors": (
        "ConfigurationError",
        "MatterOpticsError",
        "NumericsError",
        "ParameterError",
        "PhysicsGuardError",
        "PoleError",
        "SingularDetuningError",
        "SteadyStateError",
        "SweepError",
        "SweepGuardError",
    ),
    "models": (
        "ModelKind",
        "RamanNathParams",
        "RegimeCheck",
        "characteristic_volume",
        "effective_potential",
        "raman_nath_params",
        "regime_checks",
        "significant_density",
    ),
    "optics": (
        "MediumResponse",
        "contact_interaction_bound",
        "local_detuning",
        "medium_response",
        "polarizability",
        "refractive_index_sq",
        "susceptibility",
    ),
    "propagate": (
        "DiffractionPattern",
        "Grid1D",
        "PropagationConfig",
        "WaveState",
        "init_gaussian",
        "momentum_spectrum",
        "norm",
        "propagate_through_laser",
        "standing_wave_intensity",
        "step",
    ),
    "sweep": ("SweepRow", "SweepSpec", "run_sweep"),
    "units": (
        "C_LIGHT",
        "HBAR",
        "ParamFile",
        "PhysicalParams",
        "detuning",
        "params_to_system",
        "parse_param_file",
        "read_param_file",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__"]
__all__.extend(_HOME)


def __getattr__(name: str):
    # Looked up in its module at every read and never stored here, so a
    # function rebound in its module (a tracer installed, then removed)
    # is the one the package root hands out.
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_HOME})
