"""Exception hierarchy shared across the repro library.

Every error raised by the library derives from :class:`ReproError` so that
applications embedding the simulator can catch a single base class.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """The simulator was driven into an invalid state (programming error)."""


class ConfigurationError(ReproError):
    """A system was configured with inconsistent or unsupported parameters."""
