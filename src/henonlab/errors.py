"""Exception hierarchy shared by all modules.

The CLI maps these onto process exit codes: DomainError -> 3,
PrecisionError -> 4; anything argument-shaped is handled by argparse (2).
"""


class HenonLabError(Exception):
    """Base class for all library errors."""


class InvalidMapError(HenonLabError):
    """Map parameters violate the basic constraints (d >= 2, a != 0, lead != 0)."""


class DomainError(HenonLabError):
    """A point lies outside the domain a computation requires."""


class PrecisionError(HenonLabError):
    """Requested precision or depth is not achievable; message carries an estimate."""


class InconsistencyError(HenonLabError):
    """Two independent computation strategies disagree beyond tolerance."""
