"""Exception hierarchy shared by all modules.

Two families matter to callers: configuration problems (bad input, bad
grid, bad step size) and physics guards (formulas evaluated where the
underlying approximation breaks down). The CLI maps the first family to
exit code 1 and the second to exit code 2.
"""


class MatterOpticsError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(MatterOpticsError):
    """Invalid parameter value, unknown key, or malformed parameter file."""


class ConfigurationError(MatterOpticsError):
    """Invalid run configuration: grid geometry, step size, commensurability."""


class PhysicsGuardError(MatterOpticsError):
    """A formula was evaluated outside its domain of validity."""


class SingularDetuningError(PhysicsGuardError):
    """Adiabatic-elimination formula evaluated at zero detuning."""


class PoleError(PhysicsGuardError):
    """Denominator of a medium-response formula within guard distance of zero.

    Carries the density of the pole, 1/cm^3; optics.check_pole is
    the one place that raises it.
    """

    def __init__(self, message: str, density: float | None = None):
        super().__init__(message)
        self.density = density


class SteadyStateError(PhysicsGuardError):
    """No unique driven-damped fixed point exists (a relaxation rate is zero)."""


class NumericsError(MatterOpticsError):
    """Non-finite values appeared during propagation; carries diagnostics."""

    def __init__(self, message: str, step: int | None = None, time: float | None = None):
        super().__init__(message)
        self.step = step
        self.time = time
        self.last_good = None  # (step, last finite state), set by the transit


class SweepError(MatterOpticsError):
    """Every sweep point failed; message lists the per-point reasons."""


class SweepGuardError(SweepError, PhysicsGuardError):
    """Every sweep point failed a physics guard, so the sweep failed one."""
