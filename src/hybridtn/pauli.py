"""Pauli-string Hamiltonians for coupled spin blocks.

Two model families are provided, both of the form

    H = sum_j H_j  +  lambda * H_int

where every block Hamiltonian H_j combines nearest-neighbour ZZ couplings
of strength ``f`` with transverse (``g``) and longitudinal (``h``) fields:

    H_j = f * sum_i Z_i Z_{i+1}  +  g * sum_i X_i  +  h * sum_i Z_i

``build_1d_cluster`` places k such blocks of n spins on a line and couples
neighbouring blocks through a single boundary ZZ term whose strength f_j is
drawn uniformly from [0, 1).  ``build_2d_web`` arranges k rows of n spins
and couples vertically adjacent spins of neighbouring rows, again with
uniform random strengths f_{j,i}.  All random draws come from a
:class:`~hybridtn.rng.SplitMix64` stream so a seed pins the model exactly.

Qubits are numbered globally; a :class:`SubsystemLayout` splits them into
consecutive blocks (a tree derives its layout from its nodes), so that
operators can be decomposed into per-block factors for tree evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import SplitMix64

PAULI_LETTERS = ("X", "Y", "Z")

# Default field strengths shared by both model builders.
DEFAULT_F = 1.0
DEFAULT_G = 0.5
DEFAULT_H = 0.318


@dataclass(frozen=True)
class FieldValues:
    """Couplings of a single block: ZZ strength f, X field g, Z field h."""

    f: float = DEFAULT_F
    g: float = DEFAULT_G
    h: float = DEFAULT_H


@dataclass(frozen=True)
class PauliTerm:
    """One product of Pauli factors with a real coefficient.

    ``factors`` maps qubit index to letter; it is stored as a sorted tuple
    of (qubit, letter) pairs so terms are hashable and canonically ordered.
    Identity factors are represented by absence; an empty tuple is the
    identity term.
    """

    coefficient: float
    factors: tuple[tuple[int, str], ...]

    def __post_init__(self):
        seen = set()
        for qubit, letter in self.factors:
            if letter not in PAULI_LETTERS:
                raise ValueError(f"invalid Pauli letter {letter!r}")
            if qubit < 0:
                raise ValueError(f"negative qubit index {qubit}")
            if qubit in seen:
                raise ValueError(f"duplicate qubit {qubit} in term")
            seen.add(qubit)
        object.__setattr__(self, "factors", tuple(sorted(self.factors)))
        object.__setattr__(self, "coefficient", float(self.coefficient))

    def factor_map(self) -> dict[int, str]:
        return dict(self.factors)

    def max_qubit(self) -> int:
        return max((q for q, _ in self.factors), default=-1)


def pauli_word_masks(factors) -> tuple[int, int, int]:
    """Flip mask, sign mask and Y count of a Pauli word.

    The word maps amplitude ``x ^ flip`` to output index x with phase
    ``(-i)**n_y * (-1)**popcount(x & sign)``: X and Y flip their qubit, Z
    and Y read its output bit as a sign (Y = -i Z X).  Bit q of a mask is
    qubit q.
    """
    flip = sign = n_y = 0
    for qubit, letter in factors:
        if letter != "Z":
            flip |= 1 << qubit
        if letter != "X":
            sign |= 1 << qubit
        n_y += letter == "Y"
    return flip, sign, n_y


def parity_signs(idx: np.ndarray, mask: int) -> np.ndarray:
    """(-1)**popcount(idx & mask), elementwise, by folding the bits onto bit 0."""
    bits = idx & mask
    for shift in (32, 16, 8, 4, 2, 1):
        bits ^= bits >> shift
    return 1.0 - 2.0 * (bits & 1)


@dataclass(frozen=True)
class Hamiltonian:
    """Sum of Pauli terms on ``num_qubits`` qubits, canonically sorted.

    Construction merges duplicate factor maps and drops terms whose merged
    coefficient is exactly zero.  Term order is fixed by the sorted factor
    tuples, which keeps downstream dense assembly and serialization stable
    under permutations of the input.
    """

    num_qubits: int
    terms: tuple[PauliTerm, ...]

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be positive")
        merged: dict[tuple, list[float]] = {}
        for term in self.terms:
            if term.max_qubit() >= self.num_qubits:
                raise ValueError(
                    f"term {term.factors} exceeds register of {self.num_qubits} qubits"
                )
            merged.setdefault(term.factors, []).append(term.coefficient)
        # fsum rounds once, so the merged coefficient ignores input order
        sums = sorted((factors, math.fsum(c)) for factors, c in merged.items())
        canon = tuple(PauliTerm(c, factors) for factors, c in sums if c != 0.0)
        object.__setattr__(self, "terms", canon)

    def __len__(self) -> int:
        return len(self.terms)


@dataclass(frozen=True)
class SubsystemLayout:
    """Consecutive blocks of global qubits.

    Block s holds the next ``subsystem_sizes[s]`` global qubits, in order:
    global qubit q is local qubit r of block s when q is the r-th qubit
    after the first s blocks.
    """

    subsystem_sizes: tuple[int, ...]

    @property
    def num_subsystems(self) -> int:
        return len(self.subsystem_sizes)

    @property
    def num_qubits(self) -> int:
        return sum(self.subsystem_sizes)

    @property
    def assignment(self) -> tuple[tuple[int, int], ...]:
        """(block, local qubit) of every global qubit."""
        return tuple(
            (s, r) for s, size in enumerate(self.subsystem_sizes) for r in range(size)
        )


def _block_terms(offset: int, n: int, fields: FieldValues) -> list[PauliTerm]:
    terms = []
    for i in range(n - 1):
        terms.append(
            PauliTerm(fields.f, ((offset + i, "Z"), (offset + i + 1, "Z")))
        )
    for i in range(n):
        terms.append(PauliTerm(fields.g, ((offset + i, "X"),)))
    for i in range(n):
        terms.append(PauliTerm(fields.h, ((offset + i, "Z"),)))
    return terms


def _coupled_blocks(
    n: int, k: int, fields: FieldValues, bonds
) -> tuple[Hamiltonian, SubsystemLayout]:
    """Block terms of k blocks of n spins plus one ZZ term per (a, b, strength)."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    terms = [t for j in range(k) for t in _block_terms(j * n, n, fields)]
    terms += [PauliTerm(s, ((a, "Z"), (b, "Z"))) for a, b, s in bonds]
    return Hamiltonian(n * k, tuple(terms)), SubsystemLayout((n,) * k)


def build_1d_cluster(
    n: int,
    k: int,
    lam: float,
    seed: int,
    fields: FieldValues = FieldValues(),
) -> tuple[Hamiltonian, SubsystemLayout]:
    """Chain of k blocks of n spins with random boundary couplings.

    Block j occupies global qubits [j*n, (j+1)*n).  The interaction term
    couples the last spin of block j to the first spin of block j+1 with
    strength lam * f_j, f_j drawn uniformly from [0, 1) in boundary order
    j = 0 .. k-2 from ``SplitMix64(seed)``.
    """
    stream = SplitMix64(seed)
    bonds = [
        ((j + 1) * n - 1, (j + 1) * n, lam * stream.next_float())
        for j in range(k - 1)
    ]
    return _coupled_blocks(n, k, fields, bonds)


def build_2d_web(
    n: int,
    k: int,
    lam: float,
    seed: int,
    fields: FieldValues = FieldValues(),
) -> tuple[Hamiltonian, SubsystemLayout]:
    """k rows of n spins; vertical neighbours of adjacent rows are coupled.

    Row j occupies global qubits [j*n, (j+1)*n); qubit (j, i) is j*n + i.
    Each row carries the standard block terms.  Between rows j and j+1
    every column i contributes lam * f_{j,i} Z_{j,i} Z_{j+1,i} with
    f_{j,i} uniform in [0, 1), drawn row-major (j outer, i inner) from
    ``SplitMix64(seed)``.
    """
    stream = SplitMix64(seed)
    bonds = [
        (j * n + i, (j + 1) * n + i, lam * stream.next_float())
        for j in range(k - 1)
        for i in range(n)
    ]
    return _coupled_blocks(n, k, fields, bonds)


# Per-subsystem factor: sorted tuple of (local qubit, letter); () is identity.
LocalObs = tuple[tuple[int, str], ...]


def decompose_for_layout(
    h: Hamiltonian, layout: SubsystemLayout
) -> tuple[tuple[float, tuple[LocalObs, ...]], ...]:
    """Split every term into per-subsystem local factors.

    Returns one (coefficient, factors) entry per term, where ``factors``
    has one LocalObs per subsystem (empty tuple = identity on that block).
    The decomposition is lossless: re-attaching global indices recovers the
    input term list.
    """
    if layout.num_qubits != h.num_qubits:
        raise ValueError(
            f"Hamiltonian register of {h.num_qubits} qubits does not match "
            f"the layout's {layout.num_qubits}"
        )
    assignment = layout.assignment
    out = []
    for term in h.terms:
        per_sub: list[list[tuple[int, str]]] = [
            [] for _ in range(layout.num_subsystems)
        ]
        for qubit, letter in term.factors:
            s, r = assignment[qubit]
            per_sub[s].append((r, letter))
        factors = tuple(tuple(sorted(fs)) for fs in per_sub)
        out.append((term.coefficient, factors))
    return tuple(out)


def hamiltonian_to_text(h: Hamiltonian) -> str:
    """One term per line: ``<coefficient> <letter><qubit> ...``.

    Coefficients use ``repr`` so the round trip is exact.  Example line:
    ``0.5 Z0 Z1``.
    """
    lines = [f"# qubits: {h.num_qubits}"]
    for term in h.terms:
        parts = [repr(term.coefficient)]
        parts.extend(f"{letter}{qubit}" for qubit, letter in term.factors)
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"
