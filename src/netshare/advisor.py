"""Rule-based guidance: area verdicts, LTE core comparison, checklists.

The verdict table encodes where sharing pays off: rural deployments (high
site count per subscriber, coverage-driven) benefit most; dense urban grids
the least, because capacity requirements force duplicated radio equipment
anyway.  The LTE comparison weighs pooled-core sharing (shared mobility
manager) against RAN-only sharing with dedicated cores.  Checklists collect
the engineering questions to settle before signing a sharing agreement.
"""

from __future__ import annotations

import json
from enum import Enum
from typing import Mapping, Optional, Sequence, Tuple

from .errors import FrozenValue, InvalidAmount, read_flag, read_number, read_object, read_text
from .inventory import AreaKind, NetworkState, Technology

__all__ = [
    "ChecklistItem",
    "ComparisonRow",
    "ConstraintChecklist",
    "LteComparisonReport",
    "LteContext",
    "NetworkState",
    "Recommendation",
    "Technology",
    "Verdict",
    "checklist",
    "compare_lte",
    "recommend",
]


class Verdict(Enum):
    STRONGLY_RECOMMENDED = "StronglyRecommended"
    CASE_BY_CASE = "CaseByCase"
    NOT_RECOMMENDED = "NotRecommended"


class Recommendation(FrozenValue):
    __slots__ = ()
    _fields = ("area", "technology", "verdict", "notes")

    def to_json_dict(self) -> dict:
        return {
            "area": self.area.value,
            "technology": self.technology.value,
            "verdict": self.verdict.value,
            "notes": list(self.notes),
        }


# Verdict matrix.  Urban 2G networks are long depreciated and capacity
# driven, so sharing them buys little; newer or coverage-driven grids leave
# real money on the table.
_VERDICTS: Mapping[Tuple[AreaKind, Technology], Verdict] = {
    (AreaKind.RURAL, Technology.G2): Verdict.STRONGLY_RECOMMENDED,
    (AreaKind.RURAL, Technology.G3): Verdict.STRONGLY_RECOMMENDED,
    (AreaKind.SUBURBAN, Technology.G2): Verdict.CASE_BY_CASE,
    (AreaKind.SUBURBAN, Technology.G3): Verdict.CASE_BY_CASE,
    (AreaKind.URBAN, Technology.G2): Verdict.NOT_RECOMMENDED,
    (AreaKind.URBAN, Technology.G3): Verdict.CASE_BY_CASE,
}

_AREA_NOTES: Mapping[AreaKind, str] = {
    AreaKind.RURAL: (
        "Low revenue per site and coverage-driven grids make shared "
        "infrastructure the fastest way to profitable rural coverage."
    ),
    AreaKind.SUBURBAN: (
        "Traffic density is moderate; weigh the savings against the loss of "
        "differentiation site by site."
    ),
    AreaKind.URBAN: (
        "Dense urban grids are capacity driven, so most radio equipment "
        "would be duplicated even under a sharing agreement."
    ),
}

_2G_URBAN_NOTE = (
    "Legacy 2G assets in urban areas are already amortised; restructuring "
    "them for sharing costs more than it saves."
)
_3G_COLOCATION_NOTE = "Co-locate 3G sites with existing 2G infrastructure sites."


def recommend(area: AreaKind, technology: Technology) -> Recommendation:
    """Verdict plus guidance notes for one area and radio technology."""
    verdict = _VERDICTS[(area, technology)]
    notes = [_AREA_NOTES[area]]
    if technology is Technology.G3:
        notes.append(_3G_COLOCATION_NOTE)
    elif area is AreaKind.URBAN:
        notes.append(_2G_URBAN_NOTE)
    return Recommendation(area=area, technology=technology, verdict=verdict, notes=tuple(notes))


# ---------------------------------------------------------------------------
# LTE core sharing comparison
# ---------------------------------------------------------------------------


class LteContext(FrozenValue):
    """Operator needs that decide between pooled-core and RAN-only sharing.

    ``cost_priority_weight`` scales how much the cost advantage of a shared
    mobility manager counts, from 0 (ignore cost) to 1 (full weight).  Each
    need is exactly ``True`` or ``False``; anything else raises
    :class:`InvalidAmount`.
    """

    __slots__ = ()
    _fields = (
        "needs_inter_rat_mobility",
        "needs_cs_fallback",
        "voice_via_ims",
        "needs_roaming",
        "cost_priority_weight",
    )

    def __new__(
        cls,
        needs_inter_rat_mobility: bool = False,
        needs_cs_fallback: bool = False,
        voice_via_ims: bool = False,
        needs_roaming: bool = False,
        cost_priority_weight: float = 0.5,
    ):
        needs = (needs_inter_rat_mobility, needs_cs_fallback, voice_via_ims, needs_roaming)
        for name, need in zip(cls._fields, needs):
            read_flag(need, name, InvalidAmount)
        weight = read_number(cost_priority_weight, "cost_priority_weight", InvalidAmount)
        if not (0.0 <= weight <= 1.0):
            raise InvalidAmount(f"cost_priority_weight must be in [0, 1], got {weight!r}")
        return super().__new__(cls, *needs, weight)


class ComparisonRow(FrozenValue):
    __slots__ = ()
    _fields = (
        "criterion",
        "mocn",  # "+", "-" or "="
        "gwcn",
        "remark",
    )


# Criterion matrix: "+" favours the approach, "-" counts against it, "="
# makes no difference.  RAN-only sharing keeps each operator's core intact,
# which simplifies everything that touches the legacy core; pooling the
# mobility manager wins only on cost.
_LTE_MATRIX: Tuple[ComparisonRow, ...] = (
    ComparisonRow(
        "internetworking_with_legacy",
        "+",
        "-",
        "inter-RAT mobility needs interfaces into each operator's legacy "
        "packet core; a pooled mobility manager couples them",
    ),
    ComparisonRow(
        "cs_fallback",
        "+",
        "-",
        "circuit-switched fallback ties the mobility manager to every "
        "partner's voice switches",
    ),
    ComparisonRow(
        "ims_voice",
        "=",
        "=",
        "voice over IMS runs above the shared layers either way",
    ),
    ComparisonRow(
        "roaming",
        "+",
        "-",
        "a pooled mobility manager must carry every partner's roaming "
        "agreements and subscriber routes",
    ),
    ComparisonRow(
        "cost",
        "-",
        "+",
        "pooling the mobility manager splits one more cost block between "
        "the partners",
    ),
)

_SCORE = {"+": 1.0, "-": -1.0, "=": 0.0}


class LteComparisonReport(FrozenValue):
    __slots__ = ()
    _fields = (
        "rows",
        "mocn_score",
        "gwcn_score",
        "preferred",  # "MOCN", "GWCN" or "Tie"
    )

    def to_json_dict(self) -> dict:
        return {
            "rows": [
                {
                    "criterion": r.criterion,
                    "mocn": r.mocn,
                    "gwcn": r.gwcn,
                    "remark": r.remark,
                }
                for r in self.rows
            ],
            "mocn_score": self.mocn_score,
            "gwcn_score": self.gwcn_score,
            "preferred": self.preferred,
        }


def _row_weight(row: ComparisonRow, ctx: LteContext) -> float:
    if row.criterion == "internetworking_with_legacy":
        return 1.0 if ctx.needs_inter_rat_mobility else 0.0
    if row.criterion == "cs_fallback":
        return 1.0 if ctx.needs_cs_fallback else 0.0
    if row.criterion == "ims_voice":
        return 1.0 if ctx.voice_via_ims else 0.0
    if row.criterion == "roaming":
        return 1.0 if ctx.needs_roaming else 0.0
    return ctx.cost_priority_weight  # cost row


def compare_lte(ctx: LteContext) -> LteComparisonReport:
    """Score pooled-core against RAN-only sharing for an LTE build.

    The criterion matrix itself is fixed; the context only decides which
    rows count and how heavily the cost row weighs.
    """
    mocn = 0.0
    gwcn = 0.0
    for row in _LTE_MATRIX:
        weight = _row_weight(row, ctx)
        mocn += weight * _SCORE[row.mocn]
        gwcn += weight * _SCORE[row.gwcn]
    if abs(mocn - gwcn) <= 1e-12:
        preferred = "Tie"
    elif mocn > gwcn:
        preferred = "MOCN"
    else:
        preferred = "GWCN"
    return LteComparisonReport(
        rows=_LTE_MATRIX, mocn_score=mocn, gwcn_score=gwcn, preferred=preferred
    )


# ---------------------------------------------------------------------------
# Feasibility checklists
# ---------------------------------------------------------------------------


class ChecklistItem(FrozenValue):
    """One feasibility question of a checklist.

    ``domain`` and ``text`` are strings, and ``answered`` is ``None`` until it
    is exactly ``True`` or ``False``; anything else raises :class:`InvalidAmount`.
    """

    __slots__ = ()
    _fields = ("domain", "text", "answered")

    def __new__(
        cls,
        domain: str,  # site, energy, ran or backhaul
        text: str,
        answered: Optional[bool] = None,
    ):
        read_text(domain, "checklist item 'domain'", InvalidAmount)
        read_text(text, "checklist item 'text'", InvalidAmount)
        if answered is not None:
            read_flag(answered, "'answered'", InvalidAmount)
        return super().__new__(cls, domain, text, answered)


_ITEM_KEYS = ("domain", "text", "answered")


class ConstraintChecklist(FrozenValue):
    """The feasibility questions of one network state.

    ``network_state`` must be a :class:`NetworkState` and each item a
    :class:`ChecklistItem`, or :class:`InvalidAmount` is raised.
    """

    __slots__ = ()
    _fields = ("network_state", "items")

    def __new__(cls, network_state: NetworkState, items: Sequence[ChecklistItem]):
        if not isinstance(network_state, NetworkState):
            raise InvalidAmount(
                f"checklist 'network_state' must be a NetworkState, got {network_state!r}"
            )
        items = tuple(items)
        for item in items:
            if not isinstance(item, ChecklistItem):
                raise InvalidAmount(
                    f"checklist 'items' entry must be a ChecklistItem, got {item!r}"
                )
        return super().__new__(cls, network_state, items)

    def unanswered(self) -> Tuple[ChecklistItem, ...]:
        return tuple(i for i in self.items if i.answered is None)

    def with_answer(self, index: int, value: bool) -> "ConstraintChecklist":
        if not (0 <= index < len(self.items)):
            raise InvalidAmount(f"checklist has no item {index}")
        items = list(self.items)
        item = items[index]
        items[index] = ChecklistItem(item.domain, item.text, value)
        return ConstraintChecklist(network_state=self.network_state, items=items)

    def to_json_dict(self) -> dict:
        return {
            "network_state": self.network_state.value,
            "items": [
                {"domain": i.domain, "text": i.text, "answered": i.answered}
                for i in self.items
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "ConstraintChecklist":
        error = InvalidAmount
        read_object(doc, "checklist", error, ("network_state", "items"), ("network_state",))
        state = read_text(doc["network_state"], "checklist 'network_state'", error)
        try:
            network_state = NetworkState(state)
        except ValueError as exc:
            raise error(
                f"unknown network_state {state!r}; expected one of "
                f"{[s.value for s in NetworkState]}"
            ) from exc
        raw_items = doc.get("items", ())
        if not isinstance(raw_items, (list, tuple)):
            raise error(f"checklist 'items' must be a list, got {type(raw_items).__name__}")
        items = []
        for item in raw_items:
            read_object(item, "checklist item", error, _ITEM_KEYS, ("domain", "text"))
            items.append(ChecklistItem(item["domain"], item["text"], item.get("answered")))
        return cls(network_state=network_state, items=items)

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)


_EXISTING_ITEMS = (
    ("site", "Area of the site: is it sufficient for the new equipment or "
             "does additional site area need to be acquired?"),
    ("site", "Mast of the site: is it dimensioned to receive the new antennas?"),
    ("energy", "Energy is generally dimensioned for current needs only: it is "
               "necessary to adapt the energy to the new requirements."),
    ("energy", "Electrical supply: change the standing charge."),
    ("energy", "Battery and emergency energy: add new batteries."),
    ("energy", "Diesel: replace the existing generators with new generators."),
    ("energy", "Solar: add new solar panels."),
    ("ran", "Add the radio components needed to absorb the extra traffic."),
    ("ran", "Accept the constraints of the other operator: network design, "
            "radio optimisation, software level, quality of service."),
    ("backhaul", "Microwave links: are they dimensioned to receive the added "
                 "traffic?"),
    ("backhaul", "Leased lines: is there enough capacity on the lines?"),
)

_NEW_ITEMS = (
    ("site", "Choice of site, or geographical splitting of the build "
             "between the operators."),
    ("site", "Number of sites, set by the coverage quality to reach."),
    ("energy", "Choice of power source: electrical if possible, otherwise "
               "diesel or solar."),
    ("ran", "Technical complexity: find an agreement on infrastructure "
            "manufacturers, technologies and frequencies."),
    ("ran", "Operational complexity: find an agreement on network design, "
            "radio optimisation, software and release levels, quality of "
            "service."),
    ("backhaul", "Choice of the type of backhaul: lines, Microwave, VSAT."),
    ("backhaul", "Dimension the backhaul for the expected data traffic."),
)


def checklist(state: NetworkState) -> ConstraintChecklist:
    """Engineering questions to settle before sharing in the given state.

    Existing networks centre on headroom (space, mast loading, energy,
    backhaul capacity); new builds centre on joint choices to agree on.
    All items start unanswered.
    """
    rows = _EXISTING_ITEMS if state is NetworkState.EXISTING else _NEW_ITEMS
    return ConstraintChecklist(
        network_state=state,
        items=tuple(ChecklistItem(domain=d, text=t) for d, t in rows),
    )
