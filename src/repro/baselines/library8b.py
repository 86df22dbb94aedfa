"""A small pre-generated library of conventional approximate multipliers.

Plays the role of the EvoApprox8b library [Mrazek et al., DATE 2017] in
the paper's comparisons: a shelf of general-purpose approximate
multipliers spanning the error/cost plane, none of which knows anything
about the target application's data distribution.  Entries are generated
parametrically from the truncated / broken-array / zero-guarded families
(see README.md, "Substitutions").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..circuits.netlist import Netlist
from ..circuits.simulator import truth_table
from .broken_array import build_broken_array_multiplier
from .truncated import build_truncated_multiplier
from .zero_guard import build_zero_guard_multiplier

__all__ = ["LibraryEntry", "conventional_multiplier_library"]


@dataclass(frozen=True)
class LibraryEntry:
    """One shelf multiplier: its netlist, family tag and truth table."""

    name: str
    family: str
    netlist: Netlist
    table: np.ndarray

    @property
    def is_exact_for_zero(self) -> bool:
        return self.family == "zero-guard"


def _entry(name: str, family: str, net: Netlist, signed: bool) -> LibraryEntry:
    return LibraryEntry(
        name=name, family=family, netlist=net,
        table=truth_table(net, signed=signed),
    )


def conventional_multiplier_library(
    width: int = 8,
    signed: bool = True,
    families: Optional[List[str]] = None,
) -> List[LibraryEntry]:
    """Generate the shelf of conventional approximate multipliers.

    Args:
        width: Operand width (8 for all paper experiments).
        signed: Two's-complement semantics.
        families: Subset of ``{"truncated", "broken-array", "zero-guard"}``
            to generate; all by default.

    Returns:
        Entries ordered family-by-family, mild to aggressive.  Includes
        the exact multiplier (truncation 0) as the reference point.
    """
    wanted = set(families or ["truncated", "broken-array", "zero-guard"])
    unknown = wanted - {"truncated", "broken-array", "zero-guard"}
    if unknown:
        raise ValueError(f"unknown families: {sorted(unknown)}")

    entries: List[LibraryEntry] = []
    if "truncated" in wanted:
        for k in range(0, width + 1):
            net = build_truncated_multiplier(width, k, signed=signed)
            entries.append(_entry(net.name, "truncated", net, signed))
    if "broken-array" in wanted:
        for vbl in range(2, width + 1, 2):
            for hbl in range(0, width // 2 + 1, 2):
                net = build_broken_array_multiplier(
                    width, vbl=vbl, hbl=hbl, signed=signed
                )
                entries.append(_entry(net.name, "broken-array", net, signed))
    if "zero-guard" in wanted:
        for k in range(1, width + 1):
            net = build_zero_guard_multiplier(width, k, signed=signed)
            entries.append(_entry(net.name, "zero-guard", net, signed))
    return entries
