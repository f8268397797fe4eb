"""Exception hierarchy for the netshare model.

Every domain failure raises a subclass of :class:`NetshareError`, so callers
(including the command line front end) can distinguish model errors from
programming errors with a single except clause.
"""


class NetshareError(Exception):
    """Base class for all domain errors raised by this package."""


class MissingCostEntry(NetshareError):
    """A unit-cost vector lacks an entry for an element class that scales
    with the area profile."""


class InvalidAmount(NetshareError):
    """A cost amount is negative or otherwise not a usable number."""


class ZeroTotalLedger(NetshareError):
    """A repartition check referenced a ledger whose total is zero, so no
    fraction is defined."""


class UnknownPreset(NetshareError):
    """Requested sharing preset name is not in the catalogue."""


class InvalidConfiguration(NetshareError):
    """A sharing configuration breaks a structural rule (operator count,
    split ratios, unknown element class)."""


class InvalidOperatorIndex(NetshareError):
    """Asked for the cost share of an operator index that does not exist."""


class InvalidHorizon(NetshareError):
    """Planning horizon must be a positive whole number of years."""


class ZeroBaseline(NetshareError):
    """Savings are undefined against a baseline with zero grand total."""


class HorizonMismatch(NetshareError):
    """Two cost breakdowns cover different planning horizons."""


class AreaMismatch(NetshareError):
    """Two reports describe different area kinds and cannot be compared."""


class MalformedScenario(NetshareError):
    """Scenario document is not valid JSON or violates the schema."""


class InvalidScenario(NetshareError):
    """Scenario parsed cleanly but fails semantic validation.

    Carries the per-configuration validation reports on ``reports``.
    """

    def __init__(self, message, reports=None):
        super().__init__(message)
        self.reports = reports or []


class InvalidSweepParameter(NetshareError):
    """Sweep specification names an unknown parameter or an empty range."""


class IoFailure(NetshareError):
    """An output target could not be written or an input file read."""


class MissingDependency(NetshareError, ImportError):
    """An optional third-party package that a feature needs is not installed.

    Also an :class:`ImportError`, so code that probes for optional features
    with ``except ImportError`` keeps working.
    """


class InfeasibleCalibration(NetshareError):
    """No cost table can satisfy the requested constraint set.

    ``violations`` lists the constraint labels (or target descriptions)
    that could not be met by the best candidate found.
    """

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = tuple(violations or ())
