"""Analytic standard-cell library.

This stands in for the Synopsys Design Compiler + 45 nm PDK flow the paper
uses for final reporting.  The numbers below are modeled on a generic
45 nm educational library (NanGate-class): relative areas, delays and
switching energies between cell types are realistic, which is all the
experiments need — the CGP loop only consumes *relative* cost, and every
paper figure reports reductions relative to the exact circuit.

See README.md ("Substitutions") for why this preserves the paper's
conclusions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

__all__ = ["Cell", "TechLibrary", "NANGATE45", "default_library"]


@dataclass(frozen=True)
class Cell:
    """Electrical characterization of one standard cell.

    Attributes:
        name: Cell/function name (matches the gate registry).
        area: Cell area in um^2.
        delay: Pin-to-pin propagation delay in ps (load-averaged).
        input_cap: Input pin capacitance in fF.
        switch_energy: Internal energy per output transition in fJ.
        leakage: Static leakage power in nW.
    """

    name: str
    area: float
    delay: float
    input_cap: float
    switch_energy: float
    leakage: float


@dataclass(frozen=True)
class TechLibrary:
    """A named collection of cells plus operating-point constants."""

    name: str
    cells: Mapping[str, Cell]
    vdd: float = 1.0
    clock_ghz: float = 1.0

    def cell(self, fn: str) -> Cell:
        """Cell for a gate function name.

        Raises:
            KeyError: if the library has no cell for ``fn``.
        """
        try:
            return self.cells[fn]
        except KeyError:
            raise KeyError(
                f"library {self.name!r} has no cell for {fn!r}; "
                f"known: {sorted(self.cells)}"
            ) from None


def _nangate45() -> TechLibrary:
    # area um^2 / delay ps / input cap fF / switch energy fJ / leakage nW.
    rows = [
        #      name     area   delay  cap   energy leakage
        Cell("CONST0", 0.000, 0.0, 0.00, 0.000, 0.0),
        Cell("CONST1", 0.000, 0.0, 0.00, 0.000, 0.0),
        Cell("BUF", 0.798, 29.0, 0.95, 0.540, 15.0),
        Cell("NOT", 0.532, 12.0, 1.04, 0.310, 10.5),
        Cell("NAND", 0.798, 14.5, 1.10, 0.430, 12.1),
        Cell("NOR", 0.798, 21.0, 1.09, 0.460, 11.8),
        Cell("AND", 1.064, 32.0, 1.00, 0.660, 19.4),
        Cell("OR", 1.064, 34.0, 0.99, 0.690, 18.9),
        Cell("XOR", 1.596, 49.0, 1.62, 1.120, 27.7),
        Cell("XNOR", 1.596, 47.0, 1.60, 1.080, 27.3),
        Cell("ANDN", 1.064, 33.0, 1.05, 0.680, 19.0),
        Cell("ORN", 1.064, 35.0, 1.04, 0.700, 18.6),
    ]
    return TechLibrary(name="nangate45-like", cells={c.name: c for c in rows})


#: Default 45 nm-class library used by all experiments.
NANGATE45: TechLibrary = _nangate45()


def default_library() -> TechLibrary:
    """The library every experiment uses unless told otherwise."""
    return NANGATE45
