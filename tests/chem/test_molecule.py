"""Unit tests for molecular geometry containers (repro.chem.molecule)."""

import numpy as np
import pytest

from repro.chem.constants import ANGSTROM_TO_BOHR
from repro.chem.molecule import Atom, Molecule
from repro.errors import GeometryError


def test_atom_normalises_symbol_case():
    assert Atom("c", (0, 0, 0)).symbol == "C"


def test_atom_rejects_unknown_element():
    with pytest.raises(GeometryError):
        Atom("Xx", (0, 0, 0))


def test_atomic_numbers():
    assert Atom("H", (0, 0, 0)).atomic_number == 1
    assert Atom("O", (0, 0, 0)).atomic_number == 8


def test_from_angstrom_converts_to_bohr():
    mol = Molecule.from_angstrom("h2", ["H", "H"], np.array([[0, 0, 0], [0, 0, 1.0]]))
    assert mol.atoms[1].position[2] == pytest.approx(ANGSTROM_TO_BOHR)


def test_from_angstrom_shape_mismatch():
    with pytest.raises(GeometryError):
        Molecule.from_angstrom("bad", ["H"], np.zeros((2, 3)))


def test_empty_molecule_rejected():
    with pytest.raises(GeometryError):
        Molecule("empty", ())


def test_heavy_atom_indices_skip_hydrogen():
    mol = Molecule("m", (Atom("H", (0, 0, 0)), Atom("C", (1, 0, 0)), Atom("H", (2, 0, 0))))
    assert mol.heavy_atom_indices == [1]


def test_formula_hill_order():
    mol = Molecule(
        "m",
        (Atom("O", (0, 0, 0)), Atom("C", (1, 0, 0)), Atom("H", (2, 0, 0)), Atom("H", (3, 0, 0))),
    )
    assert mol.formula == "CH2O"


def test_nuclear_repulsion_h2():
    # Two protons at 1.4 bohr: E = 1/1.4.
    mol = Molecule("h2", (Atom("H", (0, 0, 0)), Atom("H", (0, 0, 1.4))))
    assert mol.nuclear_repulsion() == pytest.approx(1.0 / 1.4)
