"""Competitive-ratio reports shared by the game harness and competitive_report."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .model import PROFIT_TOL, Trace


@dataclass(frozen=True)
class SlotLcr:
    slot: int
    i_chosen: int
    lcr: float


@dataclass(frozen=True)
class RatioReport:
    """Offline vs online profit for one run, with the per-slot LCR ledger.

    ratio is off/alg when the online profit is positive, 1 when both profits
    are zero, and +inf when only the online profit is zero (flagged, never
    asserted against). max_lcr is NaN when no slot recorded an LCR.
    """

    label: str
    off_profit: float
    alg_profit: float
    ratio: float
    per_slot_lcr: tuple[SlotLcr, ...]
    max_lcr: float

    @property
    def has_lcr(self) -> bool:
        return bool(self.per_slot_lcr)

    def to_row(self) -> dict:
        return {
            "label": self.label,
            "off": self.off_profit,
            "alg": self.alg_profit,
            "ratio": self.ratio,
            "max_lcr": self.max_lcr,
        }

    def to_obj(self) -> dict:
        obj = self.to_row()
        obj["per_slot_lcr"] = [
            {"slot": r.slot, "i_chosen": r.i_chosen, "lcr": r.lcr} for r in self.per_slot_lcr
        ]
        return obj


def profit_ratio(off_profit: float, alg_profit: float) -> float:
    if alg_profit > PROFIT_TOL:
        return off_profit / alg_profit
    if off_profit <= PROFIT_TOL:
        return 1.0
    return math.inf


def build_report(label: str, off_profit: float, trace: Trace) -> RatioReport:
    """Assemble a RatioReport from an offline profit and a policy trace."""
    rows = tuple(
        SlotLcr(entry.slot, entry.chosen, entry.chosen_breakdown().lcr)
        for entry in trace.ledgers
    )
    max_lcr = max((r.lcr for r in rows), default=math.nan)
    return RatioReport(
        label=label,
        off_profit=off_profit,
        alg_profit=trace.total_profit,
        ratio=profit_ratio(off_profit, trace.total_profit),
        per_slot_lcr=rows,
        max_lcr=max_lcr,
    )
