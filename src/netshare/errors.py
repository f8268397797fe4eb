"""Exception hierarchy for the netshare model.

Every domain failure raises a subclass of :class:`NetshareError`, so callers
(including the command line front end) can distinguish model errors from
programming errors with a single except clause.  The ``read_*`` functions
check the fields of every input document, and :class:`FrozenValue` at the
end is the base of the package's immutable value types.
"""

# namedtuple's accessor of one field; collections itself falls back to
# property(itemgetter(index)) where its C version is missing.
from collections import _tuplegetter
from collections.abc import Mapping


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


# ---------------------------------------------------------------------------
# Document readers
# ---------------------------------------------------------------------------
# Every input document is strict: an unknown key, a missing key or a wrongly
# typed value is refused rather than ignored or coerced.  Each reader raises
# the error class its caller passes, with a message that names the field.


def read_object(doc, what: str, error: type, keys, required=()) -> None:
    """Refuse ``doc`` unless it is an object whose keys lie in ``keys`` and include ``required``."""
    if not isinstance(doc, Mapping):
        raise error(f"{what} must be an object, got {type(doc).__name__}")
    unknown = set(doc) - set(keys)
    if unknown:
        raise error(f"unknown {what} keys: {listed(unknown)}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise error(f"{what} needs keys: {missing!r}")


def read_number(value, what: str, error: type) -> float:
    """``value`` as a float.  Infinity and NaN pass: range checks belong to the constructors."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise error(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise error(f"{what} must fit in a float, got {_shown(value)}") from exc


def read_integer(value, what: str, error: type, least: int, most=None) -> int:
    """``value`` if it is an integer from ``least`` up to ``most`` (unbounded when None)."""
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or value < least
        or (most is not None and value > most)
    ):
        bounds = f">= {least}" if most is None else f"from {least} to {most}"
        raise error(f"{what} must be an integer {bounds}, got {_shown(value)}")
    return value


def read_text(value, what: str, error: type) -> str:
    """``value`` if it is a string."""
    if not isinstance(value, str):
        raise error(f"{what} must be a string, got {value!r}")
    return value


def read_flag(value, what: str, error: type) -> bool:
    """``value`` if it is ``true`` or ``false``; no other value counts as a flag."""
    if not isinstance(value, bool):
        raise error(f"{what} must be true or false, got {value!r}")
    return value


def listed(keys) -> str:
    """``keys`` as a list for an error message, sorted by ``repr`` so any key types compare."""
    return f"[{', '.join(sorted(map(repr, keys)))}]"


def _shown(value) -> str:
    """``repr(value)``, or the length of an integer too long for one error line."""
    if isinstance(value, int) and not -10**20 < value < 10**20:
        return f"an integer of about {int(abs(value).bit_length() * 0.30103) + 1} digits"
    return repr(value)


# ---------------------------------------------------------------------------
# Immutable values
# ---------------------------------------------------------------------------


class FrozenValue(tuple):
    """Base of the package's immutable value types.

    A value is the tuple of its fields.  A subclass names them once, in
    ``_fields``, in constructor order, and declares ``__slots__ = ()``; the
    base gives each field a read-only accessor by its index.  Every value is
    built by one call, ``tuple.__new__(cls, fields)``.  The base constructor
    makes it from one argument a field, by position or by name, and refuses
    an argument too many, an unknown name, a field given twice or a missing
    one with a :class:`TypeError` that names the class and the field.  A
    subclass that checks, converts or defaults its arguments does so in its
    own ``__new__`` and then calls the base's; code whose fields are already
    checked (a grid cell, a sweep point, a rescaled cost entry) makes the
    call itself.  A value equals another of the same class with equal fields
    and never a plain tuple, has no order, hashes by its fields, prints as
    ``Name(field=value, ...)``, copies and pickles by calling its class with
    its fields, and refuses assignment and deletion with
    :class:`AttributeError`.  This is what a frozen dataclass gives,
    :meth:`replace` included, without the methods a dataclass compiles when
    its class is defined.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls) -> None:
        for index, name in enumerate(cls._fields):
            setattr(cls, name, _tuplegetter(index, None))

    def __new__(cls, *values, **named):
        fields, name = cls._fields, cls.__qualname__
        if len(values) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields, got {len(values)}")
        for field in fields[len(values) :]:
            if field not in named:
                raise TypeError(f"{name}() is missing field {field!r}")
            values += (named.pop(field),)
        for field in named:  # a name left over was given by position too, or is no field
            problem = "got field {!r} twice" if field in fields else "has no field {!r}"
            raise TypeError(f"{name}() {problem.format(field)}")
        return tuple.__new__(cls, values)

    def replace(self, **changes):
        """A copy with ``changes`` to its fields, built and checked by its constructor."""
        return type(self)(**{**dict(zip(self._fields, self)), **changes})

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        # tuple.__eq__ would compare a plain tuple's items with the fields.
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def _unordered(self, other):
        raise TypeError(f"{type(self).__qualname__} values have no order")

    __lt__ = __le__ = __gt__ = __ge__ = _unordered
    __hash__ = tuple.__hash__

    def __repr__(self) -> str:
        pairs = zip(self._fields, self)
        return f"{type(self).__qualname__}({', '.join([f'{n}={v!r}' for n, v in pairs])})"

    def __reduce__(self):
        return type(self), self[:]

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
