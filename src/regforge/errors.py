"""Exception hierarchy shared across the toolchain."""


class RegforgeError(Exception):
    """Base class for all regforge errors."""


class SpecError(RegforgeError):
    """Raised when a register-map document or script cannot be parsed.

    Carries the JSON path of the offending field when known.
    """

    def __init__(self, message, path=None):
        self.path = path
        if path:
            message = f"{path}: {message}"
        super().__init__(message)


class InvalidSpecError(SpecError):
    """A spec that :func:`~regforge.spec.validate` rejects was given where
    only a valid one will do.  Carries the report as ``.report``; the
    message is the report's text, one diagnostic a line."""

    def __init__(self, report):
        self.report = report
        super().__init__(str(report))


class CapacityError(RegforgeError):
    """Settings do not fit the configured global memory."""


class EmitError(RegforgeError):
    """The HDL emitter cannot handle the requested design."""


class SimError(RegforgeError):
    """Invalid simulator request: an unknown slave or offset, or a write of
    negative data."""


class CalibrationError(RegforgeError):
    """Calibration corpus is empty, rank-deficient, or inconsistent."""


class UncalibratedError(CalibrationError):
    """An estimate was requested for a family with no calibration data."""
