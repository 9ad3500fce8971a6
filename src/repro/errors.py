"""Exception types shared across the simulator."""
from typing import Any, Optional


class SimulationError(Exception):
    """Base class for all simulator errors."""


class ConfigError(SimulationError):
    """A configuration value is inconsistent or out of range."""


class DefenseConfigError(ConfigError):
    """An invalid defense name or defense/config/machine combination.

    Every bad combination — unknown registry name, a defense whose
    structural requirements the config or machine cannot meet, a
    software defense asked to run on a pre-built instruction memory —
    surfaces as this one structured error at
    :class:`~repro.pipeline.processor.Processor` construction.
    """


class AssemblyError(SimulationError):
    """The assembler rejected a source program."""


class ExecutionError(SimulationError):
    """The simulated program performed an illegal operation."""


class DeadlockError(SimulationError):
    """The pipeline made no forward progress for too many cycles.

    When raised by the forward-progress watchdog the exception carries a
    :class:`repro.robustness.watchdog.DeadlockDiagnostics` dump in
    :attr:`diagnostics` (oldest ROB entry, structure occupancies, stall
    reason, recent occupancy snapshots).
    """

    def __init__(self, message: str,
                 diagnostics: Optional[Any] = None) -> None:
        super().__init__(message)
        self.diagnostics = diagnostics


class ServeError(SimulationError):
    """Base class for analysis-service (``repro serve``) errors."""
