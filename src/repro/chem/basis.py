"""Contracted Cartesian Gaussian shells and basis sets.

A *shell* is a set of basis functions sharing a center, contraction, and
total angular momentum (paper §III-A); an l-shell has ``(l+1)(l+2)/2``
Cartesian components.  Component ordering for s/p/d/f matches GAMESS
(``xx, yy, zz, xy, xz, yz`` for d; ``xxx, yyy, zzz, xxy, xxz, xyy, yyz,
xzz, yzz, xyz`` for f), which fixes the sub-block layout the compressor
sees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.chem.constants import D_EXPONENTS, F_EXPONENTS
from repro.chem.molecule import Molecule
from repro.errors import BasisError

_SHELL_LETTERS = "spdfgh"

#: GAMESS Cartesian component order for s..f; generic order beyond.
_GAMESS_COMPONENTS: dict[int, list[tuple[int, int, int]]] = {
    0: [(0, 0, 0)],
    1: [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
    2: [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)],
    3: [
        (3, 0, 0), (0, 3, 0), (0, 0, 3),
        (2, 1, 0), (2, 0, 1), (1, 2, 0),
        (0, 2, 1), (1, 0, 2), (0, 1, 2),
        (1, 1, 1),
    ],
}


@lru_cache(maxsize=None)
def cartesian_components(l: int) -> tuple[tuple[int, int, int], ...]:
    """Cartesian (lx, ly, lz) triples of an l-shell, in GAMESS order."""
    if l < 0:
        raise BasisError(f"angular momentum must be >= 0, got {l}")
    if l in _GAMESS_COMPONENTS:
        return tuple(_GAMESS_COMPONENTS[l])
    triples = [
        (lx, ly, l - lx - ly)
        for lx in range(l, -1, -1)
        for ly in range(l - lx, -1, -1)
    ]
    return tuple(triples)


def ncart(l: int) -> int:
    """Number of Cartesian components: (l+1)(l+2)/2."""
    return (l + 1) * (l + 2) // 2


@lru_cache(maxsize=None)
def double_factorial(n: int) -> int:
    """(n)!! with (-1)!! = 0!! = 1."""
    if n <= 0:
        return 1
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def primitive_norm(alpha: float, l: int) -> float:
    """Normalisation of a primitive Cartesian Gaussian with angular (l,0,0)."""
    return (
        (2.0 * alpha / np.pi) ** 0.75
        * (4.0 * alpha) ** (l / 2.0)
        / np.sqrt(double_factorial(2 * l - 1))
    )


@lru_cache(maxsize=None)
def component_norm_ratios(l: int) -> np.ndarray:
    """Per-component factor relative to the (l,0,0) component.

    ``sqrt((2l-1)!! / ((2lx-1)!!(2ly-1)!!(2lz-1)!!))`` — exponent-independent,
    so it can be applied once per shell quartet after contraction.
    """
    top = double_factorial(2 * l - 1)
    return np.array(
        [
            np.sqrt(
                top
                / (
                    double_factorial(2 * lx - 1)
                    * double_factorial(2 * ly - 1)
                    * double_factorial(2 * lz - 1)
                )
            )
            for (lx, ly, lz) in cartesian_components(l)
        ]
    )


@dataclass(frozen=True)
class Shell:
    """A contracted Cartesian Gaussian shell.

    Attributes
    ----------
    l:
        Total angular momentum (0=s, 1=p, 2=d, 3=f, ...).
    center:
        Cartesian center in Bohr.
    exponents / coefficients:
        Primitive exponents and contraction coefficients (for primitives
        that are individually normalised; the contraction itself is
        renormalised on construction).
    atom_index:
        Index of the carrying atom in the parent molecule (-1 if free).
    """

    l: int
    center: tuple[float, float, float]
    exponents: tuple[float, ...]
    coefficients: tuple[float, ...]
    atom_index: int = -1

    def __post_init__(self) -> None:
        if self.l < 0:
            raise BasisError(f"bad angular momentum {self.l}")
        if len(self.exponents) != len(self.coefficients) or not self.exponents:
            raise BasisError("exponents and coefficients must be equal-length, non-empty")
        if any(a <= 0 for a in self.exponents):
            raise BasisError("exponents must be positive")
        object.__setattr__(self, "center", tuple(float(x) for x in self.center))
        object.__setattr__(self, "exponents", tuple(float(a) for a in self.exponents))
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))

    @property
    def letter(self) -> str:
        return _SHELL_LETTERS[self.l] if self.l < len(_SHELL_LETTERS) else f"l{self.l}"

    @property
    def ncart(self) -> int:
        return ncart(self.l)

    def contraction(self) -> tuple[np.ndarray, np.ndarray]:
        """Exponents and fully-normalised contraction coefficients.

        Coefficients include the primitive norms and a shell-level factor
        making the (l,0,0) component's self-overlap equal 1.
        """
        alphas = np.array(self.exponents)
        coefs = np.array(self.coefficients) * np.array(
            [primitive_norm(a, self.l) for a in self.exponents]
        )
        # Self-overlap of the (l,0,0) contracted function.
        psum = alphas[:, None] + alphas[None, :]
        s_prim = (
            double_factorial(2 * self.l - 1)
            / (2.0 * psum) ** self.l
            * (np.pi / psum) ** 1.5
        )
        s = float(coefs @ s_prim @ coefs)
        return alphas, coefs / np.sqrt(s)


@dataclass(frozen=True)
class BasisSet:
    """An ordered collection of shells over a molecule."""

    molecule: Molecule
    shells: tuple[Shell, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "shells", tuple(self.shells))
        if not self.shells:
            raise BasisError("basis set has no shells")

    def __len__(self) -> int:
        return len(self.shells)

    @property
    def n_basis_functions(self) -> int:
        return sum(sh.ncart for sh in self.shells)

    def shells_of_type(self, letter: str) -> list[int]:
        """Indices of shells with the given letter ('s', 'p', 'd', 'f')."""
        want = _SHELL_LETTERS.index(letter.lower())
        return [i for i, sh in enumerate(self.shells) if sh.l == want]


_EXPONENT_TABLES = {"d": D_EXPONENTS, "f": F_EXPONENTS}


def polarization_basis(
    molecule: Molecule,
    shell_type: str,
    heavy_only: bool = True,
    exponent_scale: tuple[float, ...] = (1.0,),
) -> BasisSet:
    """One (or more) uncontracted d/f polarization shells per (heavy) atom.

    This mirrors how the paper's (dd|dd) and (ff|ff) datasets arise: the
    d/f polarization manifolds of standard basis sets are single-primitive
    shells with element-specific exponents.  ``exponent_scale`` adds extra
    shells per atom at scaled exponents (more shells → more quartets →
    larger datasets).
    """
    shell_type = shell_type.lower()
    if shell_type not in _EXPONENT_TABLES:
        raise BasisError(f"shell_type must be 'd' or 'f', got {shell_type!r}")
    table = _EXPONENT_TABLES[shell_type]
    l = _SHELL_LETTERS.index(shell_type)
    indices = molecule.heavy_atom_indices if heavy_only else range(len(molecule))
    shells = []
    for i in indices:
        atom = molecule.atoms[i]
        base = table.get(atom.symbol)
        if base is None:
            raise BasisError(f"no {shell_type} exponent tabulated for {atom.symbol}")
        for scale in exponent_scale:
            shells.append(
                Shell(l=l, center=atom.position, exponents=(base * scale,),
                      coefficients=(1.0,), atom_index=i)
            )
    return BasisSet(molecule, tuple(shells))
