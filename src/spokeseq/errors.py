"""Exception hierarchy with machine-readable codes.

Every error the engine can raise carries a short stable ``code`` so the CLI
can map failures to distinct exit statuses and scripts can grep reports.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class; ``code`` is stable across releases."""

    code = "E_ENGINE"

    def __init__(self, message: str):
        super().__init__(f"[{self.code}] {message}")
        self.message = message


class ConfigError(EngineError):
    """Invalid run configuration (bad prime, non-unit beta, ...)."""

    code = "E_CONFIG"


class WindowError(EngineError):
    """Degree window empty, or too small to decide a verdict."""

    code = "E_WINDOW"


class WindowIncompleteError(WindowError):
    """Monomial enumeration cannot be certified complete for the window."""

    code = "E_WINDOW_INCOMPLETE"


class HomogeneityError(EngineError):
    """An element or structure-map image is not homogeneous."""

    code = "E_HOMOGENEITY"


class InvertibilityError(EngineError):
    """A generator image required to be invertible is not."""

    code = "E_INVERTIBLE"


class CompositionError(EngineError):
    """A differential pair fails d o d = 0."""

    code = "E_DSQUARE"


class BookkeepingError(EngineError):
    """Spectral-sequence dimension bookkeeping is inconsistent."""

    code = "E_BOOKKEEPING"
