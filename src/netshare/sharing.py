"""Sharing configurations, preset catalogue and rule-based validation.

A :class:`SharingConfiguration` records which element classes a group of
operators shares and how costs split between them.  Configurations map onto
a five-level ladder (site, antenna, NodeB, RNC, core); sharing higher rungs
without the lower ones is legal but flagged, because in practice operators
climb the ladder from the bottom.

The preset catalogue covers the standard industry arrangements: pooled-
spectrum RAN sharing with and without a shared packet-core gateway
(MOCN/GWCN families), passive-only variants and a roaming-style gateway
arrangement.  MORAN (common RAN, dedicated carriers) is exposed as an alias.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Iterable, Mapping, Optional, Sequence, Tuple

from .errors import (
    FrozenValue,
    InvalidConfiguration,
    MalformedScenario,
    UnknownPreset,
    listed,
    read_flag,
    read_integer,
    read_number,
    read_object,
    read_text,
)
from .inventory import _CLASS_LABELS, ElementClass

__all__ = [
    "LevelAssessment",
    "NO_SHARING",
    "PRESET_NAMES",
    "RegulatoryPolicy",
    "SharingConfiguration",
    "SharingLevel",
    "ValidationIssue",
    "ValidationReport",
    "preset",
    "sharing_level",
    "validate_configuration",
]


class SharingLevel(IntEnum):
    """Sharing ladder from civil infrastructure up to the packet core."""

    L1_SITE = 1
    L2_ANTENNA = 2
    L3_NODEB = 3
    L4_RNC = 4
    L5_CORE = 5


# Class that defines each rung of the ladder; core counts via either gateway.
_LEVEL_CLASS = {
    SharingLevel.L1_SITE: (ElementClass.PASSIVE_SITE,),
    SharingLevel.L2_ANTENNA: (ElementClass.ANTENNA,),
    SharingLevel.L3_NODEB: (ElementClass.NODEB,),
    SharingLevel.L4_RNC: (ElementClass.RNC,),
    SharingLevel.L5_CORE: (ElementClass.CORE_SGSN, ElementClass.CORE_GGSN),
}


class LevelAssessment(FrozenValue):
    """Resolved ladder position: highest shared rung plus a gap flag.

    ``level`` is ``None`` when nothing ladder-relevant is shared (the
    :data:`NO_SHARING` sentinel).  ``non_contiguous`` is true when some rung
    below the highest shared one is not itself shared.
    """

    __slots__ = ()
    _fields = ("level", "non_contiguous")

    def __new__(cls, level: Optional[SharingLevel], non_contiguous: bool = False):
        return super().__new__(cls, level, non_contiguous)


NO_SHARING = LevelAssessment(level=None, non_contiguous=False)


class RegulatoryPolicy(FrozenValue):
    """Regulatory side conditions a configuration must respect.

    ``spectrum_pooling_allowed`` false forbids sharing the spectrum licence;
    ``max_level``, when set, is the deepest ladder rung a configuration may
    reach.  Breaking either is an error in :func:`validate_configuration`.
    The flag must be exactly ``True`` or ``False`` and ``max_level`` a
    :class:`SharingLevel` or ``None``; anything else raises
    :class:`MalformedScenario`, as the scenario reader's ``policy`` block does.
    """

    __slots__ = ()
    _fields = ("spectrum_pooling_allowed", "max_level")

    def __new__(
        cls, spectrum_pooling_allowed: bool = True, max_level: Optional[SharingLevel] = None
    ):
        read_flag(spectrum_pooling_allowed, "spectrum_pooling_allowed", MalformedScenario)
        if max_level is not None and not isinstance(max_level, SharingLevel):
            raise MalformedScenario(f"max_level must be a SharingLevel, got {max_level!r}")
        return super().__new__(cls, spectrum_pooling_allowed, max_level)


# The flags and keys of a configuration document.
_FLAGS = ("intl_shared", "couple_site_costs", "single_spectrum")
_CONFIGURATION_KEYS = ("name", "shared", "operators", "split") + _FLAGS

# A document's operator count sets the length of its equal split, so the reader
# bounds it before building one ratio per operator, and the constructor bounds a
# split's length the same way.  Shared elements serve a handful of operators;
# the ManyOperators warning starts at 5.
_MAX_OPERATORS = 1_000

_CLASSES = tuple(ElementClass)

# Positions, in ElementClass order, of the flags SharingConfiguration.shared_mask adds.
_SITE, _RENT, _POWER, _INTL = (
    _CLASSES.index(ElementClass(label))
    for label in ("passive_site", "site_rent", "power", "international_connectivity")
)


class SharingConfiguration(FrozenValue):
    """Which element classes are shared and how their cost is split.

    ``shared`` holds the shared classes; the constructor keeps them once each,
    in ``ElementClass`` order.  ``split_ratios`` gives each operator's share of
    every shared cost, so its length is the operator count; the default is two
    operators at 50/50.  ``intl_shared`` treats international connectivity as
    a jointly purchased service.  ``couple_site_costs`` extends passive-site
    sharing to the recurring site costs (rent, power) that follow the site
    itself.  ``single_spectrum`` marks arrangements that run on one operator's
    carriers instead of pooled spectrum.
    """

    __slots__ = ()
    _fields = (
        "name", "shared", "split_ratios", "intl_shared", "couple_site_costs", "single_spectrum"
    )

    def __new__(
        cls,
        name: str,
        shared: Iterable[ElementClass] = (),
        split_ratios: Sequence[float] = (0.5, 0.5),
        intl_shared: bool = False,
        couple_site_costs: bool = False,
        single_spectrum: bool = False,
    ):
        read_text(name, "configuration 'name'", InvalidConfiguration)
        # A map iterates as its keys, so {RNC: False} would read as "RNC shared".
        if isinstance(shared, (Mapping, str)) or not isinstance(shared, Iterable):
            raise InvalidConfiguration(
                f"shared must be a collection of element classes, got {shared!r}"
            )
        chosen = list(shared)
        unknown = [c for c in chosen if not isinstance(c, ElementClass)]
        if unknown:
            raise InvalidConfiguration(f"unknown element classes in shared: {listed(unknown)}")
        if not isinstance(split_ratios, (list, tuple)):
            raise InvalidConfiguration(f"'split' must be a list of numbers, got {split_ratios!r}")
        ratios = tuple(
            [read_number(r, "'split' entry", InvalidConfiguration) for r in split_ratios]
        )
        if not 2 <= len(ratios) <= _MAX_OPERATORS:
            raise InvalidConfiguration(
                f"a split needs one ratio per operator, 2 to {_MAX_OPERATORS}, got {len(ratios)}"
            )
        if not all(0.0 < r <= 1.0 for r in ratios):  # also rejects NaN
            raise InvalidConfiguration(f"split ratios must lie in (0, 1], got {ratios!r}")
        if abs(sum(ratios) - 1.0) > 1e-9:
            raise InvalidConfiguration(f"split ratios must sum to 1, got {sum(ratios)!r}")
        flags = (intl_shared, couple_site_costs, single_spectrum)
        for key, flag in zip(_FLAGS, flags):
            read_flag(flag, repr(key), InvalidConfiguration)
        shared = tuple([c for c in _CLASSES if c in chosen])
        return super().__new__(cls, name, shared, ratios, *flags)

    @property
    def operator_count(self) -> int:
        """The number of operators: one split ratio each."""
        return len(self.split_ratios)

    # -- shared-set helpers ----------------------------------------------

    def shared_mask(self) -> Tuple[bool, ...]:
        """Whether each element class is effectively shared, in ``ElementClass`` order.

        This is the one sharing rule: the ``shared`` classes, plus site rent and
        power when the passive site is shared with ``couple_site_costs``, plus
        international connectivity when ``intl_shared`` is set.
        """
        shared = self.shared
        mask = [c in shared for c in _CLASSES]
        if self.couple_site_costs and mask[_SITE]:
            mask[_RENT] = mask[_POWER] = True
        if self.intl_shared:
            mask[_INTL] = True
        return tuple(mask)

    def _sweep_copy(
        self, split_ratios: Tuple[float, ...], intl_shared: bool
    ) -> "SharingConfiguration":
        """This configuration with ``split_ratios`` and ``intl_shared``.

        A split or intl sweep point builds one per configuration, so it is built
        from its fields without the constructor, whose checks the sweep's values keep.
        """
        name, shared, _, _, couple, single = self
        fields = (name, shared, split_ratios, intl_shared, couple, single)
        return tuple.__new__(SharingConfiguration, fields)

    # -- serialisation ----------------------------------------------------

    def to_json_dict(self) -> dict:
        doc = {
            "name": self.name,
            "shared": {cls.value: cls in self.shared for cls in ElementClass},
            "operators": self.operator_count,
            "split": list(self.split_ratios),
            "intl_shared": self.intl_shared,
        }
        if self.couple_site_costs:
            doc["couple_site_costs"] = True
        if self.single_spectrum:
            doc["single_spectrum"] = True
        return doc

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "SharingConfiguration":
        error = InvalidConfiguration
        read_object(doc, "configuration", error, _CONFIGURATION_KEYS, ("name", "shared"))
        read_object(doc["shared"], "'shared'", error, _CLASS_LABELS)
        # A document writes the shared classes as a map of flags.
        shared = [
            ElementClass(label)
            for label, flag in doc["shared"].items()
            if read_flag(flag, f"shared[{label!r}]", error)
        ]
        count = read_integer(doc.get("operators", 2), "operator_count", error, 2, _MAX_OPERATORS)
        split = doc.get("split")
        if split is None:
            split = (1.0 / count,) * count
        elif isinstance(split, (list, tuple)) and len(split) != count:
            raise error(f"{len(split)} split ratios for {count} operators")
        flags = {key: doc.get(key, False) for key in _FLAGS}
        return cls(doc["name"], shared, split, **flags)


# ---------------------------------------------------------------------------
# Preset catalogue
# ---------------------------------------------------------------------------

_E = ElementClass
_RAN_SHARED = (_E.PASSIVE_SITE, _E.NODEB, _E.RNC)

# Shared-class matrix per preset.  The six grid presets differ only in
# backhaul, pooled spectrum and the packet-core gateway row.
_PRESET_MATRIX = {
    "MOCN": _RAN_SHARED + (_E.SPECTRUM_LICENSE,),
    "MOCN + Backhaul": _RAN_SHARED + (_E.BACKHAUL, _E.SPECTRUM_LICENSE),
    "MOCN - Spectrum": _RAN_SHARED + (_E.BACKHAUL,),
    "GWCN": _RAN_SHARED + (_E.SPECTRUM_LICENSE, _E.CORE_SGSN),
    "GWCN + Backhaul": _RAN_SHARED + (_E.BACKHAUL, _E.SPECTRUM_LICENSE, _E.CORE_SGSN),
    "GWCN - Spectrum": _RAN_SHARED + (_E.BACKHAUL, _E.CORE_SGSN),
    "PassiveOnly": (_E.PASSIVE_SITE,),
    "SiteAntenna": (_E.PASSIVE_SITE, _E.ANTENNA),
    "GatewayRoaming": _RAN_SHARED + (_E.BACKHAUL,),
}

PRESET_NAMES: Tuple[str, ...] = tuple(_PRESET_MATRIX)

# Common RAN on dedicated carriers: the MOCN matrix without pooled spectrum
# or shared backhaul.
_ALIASES = {"MORAN": _RAN_SHARED}

ALIAS_NAMES: Tuple[str, ...] = tuple(_ALIASES)


def preset(name: str) -> SharingConfiguration:
    """Build a catalogue configuration by name.

    It has two operators on an equal split and keeps international
    connectivity separate; ``replace`` changes any of that.  Unknown names
    raise :class:`UnknownPreset`.
    """
    if name in _PRESET_MATRIX:
        classes = _PRESET_MATRIX[name]
    elif name in _ALIASES:
        classes = _ALIASES[name]
    else:
        raise UnknownPreset(
            f"unknown preset {name!r}; expected one of {list(PRESET_NAMES + ALIAS_NAMES)}"
        )
    return SharingConfiguration(name, classes, single_spectrum=(name == "GatewayRoaming"))


# ---------------------------------------------------------------------------
# Ladder level
# ---------------------------------------------------------------------------


def sharing_level(config: SharingConfiguration) -> LevelAssessment:
    """Highest rung of the sharing ladder the configuration reaches.

    Returns :data:`NO_SHARING` when no ladder-defining class is shared.
    Service flags (international connectivity, coupled site costs) do not
    move the ladder.
    """
    shared_levels = [
        level
        for level, classes in _LEVEL_CLASS.items()
        if any(c in config.shared for c in classes)
    ]
    if not shared_levels:
        return NO_SHARING
    top = max(shared_levels)
    gaps = [
        level
        for level in SharingLevel
        if level < top and level not in shared_levels
    ]
    return LevelAssessment(level=top, non_contiguous=bool(gaps))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


class ValidationIssue(FrozenValue):
    __slots__ = ()
    _fields = ("code", "message")


class ValidationReport(FrozenValue):
    __slots__ = ()
    _fields = ("errors", "warnings")

    @property
    def valid(self) -> bool:
        return not self.errors

    def codes(self) -> Tuple[str, ...]:
        return tuple(i.code for i in self.errors + self.warnings)


def validate_configuration(
    config: SharingConfiguration, policy: Optional[RegulatoryPolicy] = None
) -> ValidationReport:
    """Check a configuration against structural and regulatory rules.

    ``policy`` is the market's regulatory policy; without one, the defaults
    of :class:`RegulatoryPolicy` apply, which allow spectrum pooling and any
    ladder depth.  Errors make the report invalid; warnings (a gap in the
    ladder, more than four operators, a single operator's spectrum) do not.
    """
    rules = policy if policy is not None else RegulatoryPolicy()
    errors = []
    warnings = []

    shared = config.shared
    core_shared = _E.CORE_SGSN in shared or _E.CORE_GGSN in shared
    if core_shared and _E.RNC not in shared:
        errors.append(
            ValidationIssue(
                "GwcnWithoutRan",
                "a shared core gateway requires a shared RNC underneath it",
            )
        )
    if _E.SPECTRUM_LICENSE in shared and not rules.spectrum_pooling_allowed:
        errors.append(
            ValidationIssue(
                "SpectrumPoolingForbidden",
                "policy forbids pooling spectrum between the operators",
            )
        )

    assessment = sharing_level(config)
    if rules.max_level is not None and assessment.level is not None:
        if assessment.level > rules.max_level:
            errors.append(
                ValidationIssue(
                    "MaxLevelExceeded",
                    f"configuration reaches {assessment.level.name}, "
                    f"policy allows at most {rules.max_level.name}",
                )
            )
    if assessment.non_contiguous:
        warnings.append(
            ValidationIssue(
                "NonContiguousLadder",
                "sharing skips lower ladder rungs; deployments normally "
                "climb from passive infrastructure upwards",
            )
        )
    if config.operator_count > 4:
        warnings.append(
            ValidationIssue(
                "ManyOperators",
                f"{config.operator_count} operators on one element; shared "
                "radio elements typically serve 3 or 4 at most",
            )
        )
    if config.single_spectrum:
        warnings.append(
            ValidationIssue(
                "SingleSpectrumCapacity",
                "running on a single operator's carriers reduces capacity "
                "compared with pooled spectrum",
            )
        )
    return ValidationReport(errors=tuple(errors), warnings=tuple(warnings))
