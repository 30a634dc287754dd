"""Molecular geometry containers.

Coordinates are stored internally in Bohr (atomic units), the natural unit
of the integral engine; constructors accept Ångström input because that is
how geometries are usually written.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.chem.constants import ANGSTROM_TO_BOHR, ATOMIC_NUMBERS, is_heavy
from repro.errors import GeometryError


@dataclass(frozen=True)
class Atom:
    """One atom: element symbol plus Cartesian position in Bohr."""

    symbol: str
    position: tuple[float, float, float]

    def __post_init__(self) -> None:
        sym = self.symbol.capitalize()
        if sym not in ATOMIC_NUMBERS:
            raise GeometryError(f"unknown element symbol {self.symbol!r}")
        object.__setattr__(self, "symbol", sym)
        object.__setattr__(self, "position", tuple(float(x) for x in self.position))

    @property
    def atomic_number(self) -> int:
        return ATOMIC_NUMBERS[self.symbol]


@dataclass(frozen=True)
class Molecule:
    """An immutable molecular geometry.

    Attributes
    ----------
    name:
        Human-readable label (shows up in dataset metadata and reports).
    atoms:
        Tuple of :class:`Atom` with positions in Bohr.
    """

    name: str
    atoms: tuple[Atom, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.atoms:
            raise GeometryError(f"molecule {self.name!r} has no atoms")
        object.__setattr__(self, "atoms", tuple(self.atoms))

    @classmethod
    def from_angstrom(
        cls, name: str, symbols: list[str], coords: np.ndarray
    ) -> "Molecule":
        """Build from symbols and an (n, 3) coordinate array in Ångström."""
        coords = np.asarray(coords, dtype=np.float64)
        if coords.shape != (len(symbols), 3):
            raise GeometryError(
                f"coordinate array shape {coords.shape} does not match "
                f"{len(symbols)} symbols"
            )
        bohr = coords * ANGSTROM_TO_BOHR
        return cls(name, tuple(Atom(s, tuple(r)) for s, r in zip(symbols, bohr)))

    def __len__(self) -> int:
        return len(self.atoms)

    @property
    def coordinates(self) -> np.ndarray:
        """(n, 3) positions in Bohr."""
        return np.array([a.position for a in self.atoms], dtype=np.float64)

    @property
    def symbols(self) -> list[str]:
        return [a.symbol for a in self.atoms]

    @property
    def heavy_atom_indices(self) -> list[int]:
        """Indices of non-hydrogen atoms (these carry the d/f shells)."""
        return [i for i, a in enumerate(self.atoms) if is_heavy(a.symbol)]

    @property
    def formula(self) -> str:
        """Hill-order molecular formula, e.g. ``C6H6``."""
        counts: dict[str, int] = {}
        for a in self.atoms:
            counts[a.symbol] = counts.get(a.symbol, 0) + 1
        parts = []
        for sym in ["C", "H"] + sorted(s for s in counts if s not in ("C", "H")):
            if sym in counts:
                parts.append(f"{sym}{counts[sym] if counts[sym] > 1 else ''}")
        return "".join(parts)

    def nuclear_repulsion(self) -> float:
        """Nuclear repulsion energy in Hartree (geometry sanity metric)."""
        coords = self.coordinates
        charges = np.array([a.atomic_number for a in self.atoms], dtype=np.float64)
        diff = coords[:, None, :] - coords[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        iu = np.triu_indices(len(self), k=1)
        return float((charges[iu[0]] * charges[iu[1]] / dist[iu]).sum())
