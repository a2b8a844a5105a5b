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

Qubits are numbered globally; a :class:`SubsystemLayout` records how they
split into blocks so that operators can be decomposed into per-block
factors for tree evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    @classmethod
    def make(cls, coefficient, factors) -> "PauliTerm":
        """Build a term from a {qubit: letter} mapping or pair iterable."""
        if hasattr(factors, "items"):
            factors = tuple(factors.items())
        return cls(coefficient, tuple(factors))

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
        merged: dict[tuple, float] = {}
        for term in self.terms:
            if term.max_qubit() >= self.num_qubits:
                raise ValueError(
                    f"term {term.factors} exceeds register of {self.num_qubits} qubits"
                )
            merged[term.factors] = merged.get(term.factors, 0.0) + term.coefficient
        canon = tuple(
            PauliTerm(coeff, factors)
            for factors, coeff in sorted(merged.items())
            if coeff != 0.0
        )
        object.__setattr__(self, "terms", canon)

    def __len__(self) -> int:
        return len(self.terms)


@dataclass(frozen=True)
class SubsystemLayout:
    """Assignment of global qubits to (subsystem, local qubit) pairs.

    ``assignment[q] == (s, r)`` says global qubit q is local qubit r of
    subsystem s.  The map must be a bijection onto {0..k-1} x {0..n_s-1}.
    """

    num_subsystems: int
    subsystem_sizes: tuple[int, ...]
    assignment: tuple[tuple[int, int], ...]
    inverse: dict[tuple[int, int], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.subsystem_sizes) != self.num_subsystems:
            raise ValueError("subsystem_sizes length mismatch")
        expected = {
            (s, r)
            for s, size in enumerate(self.subsystem_sizes)
            for r in range(size)
        }
        got = set(self.assignment)
        if len(self.assignment) != len(got) or got != expected:
            raise ValueError("assignment is not a bijection onto subsystem slots")
        object.__setattr__(
            self, "inverse", {sr: q for q, sr in enumerate(self.assignment)}
        )

    @classmethod
    def block_major(cls, num_subsystems: int, block_size: int) -> "SubsystemLayout":
        """k blocks of equal size, global qubit q -> (q // n, q % n)."""
        assignment = tuple(
            (q // block_size, q % block_size)
            for q in range(num_subsystems * block_size)
        )
        return cls(num_subsystems, (block_size,) * num_subsystems, assignment)

    @property
    def num_qubits(self) -> int:
        return len(self.assignment)

    def to_global(self, subsystem: int, local: int) -> int:
        return self.inverse[(subsystem, local)]


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
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    terms: list[PauliTerm] = []
    for j in range(k):
        terms.extend(_block_terms(j * n, n, fields))
    stream = SplitMix64(seed)
    for j in range(k - 1):
        f_j = stream.next_float()
        boundary = ((j + 1) * n - 1, (j + 1) * n)
        terms.append(PauliTerm(lam * f_j, ((boundary[0], "Z"), (boundary[1], "Z"))))
    layout = SubsystemLayout.block_major(k, n)
    return Hamiltonian(n * k, tuple(terms)), layout


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
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    terms: list[PauliTerm] = []
    for j in range(k):
        terms.extend(_block_terms(j * n, n, fields))
    stream = SplitMix64(seed)
    for j in range(k - 1):
        for i in range(n):
            f_ji = stream.next_float()
            terms.append(
                PauliTerm(lam * f_ji, ((j * n + i, "Z"), ((j + 1) * n + i, "Z")))
            )
    layout = SubsystemLayout.block_major(k, n)
    return Hamiltonian(n * k, tuple(terms)), layout


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
        raise ValueError("layout does not cover the Hamiltonian register")
    out = []
    for term in h.terms:
        per_sub: list[list[tuple[int, str]]] = [
            [] for _ in range(layout.num_subsystems)
        ]
        for qubit, letter in term.factors:
            s, r = layout.assignment[qubit]
            per_sub[s].append((r, letter))
        factors = tuple(tuple(sorted(fs)) for fs in per_sub)
        out.append((term.coefficient, factors))
    return tuple(out)


def recompose_for_layout(
    decomposed, layout: SubsystemLayout, num_qubits: int
) -> Hamiltonian:
    """Inverse of :func:`decompose_for_layout` (used for round-trip checks)."""
    terms = []
    for coeff, factors in decomposed:
        pairs = []
        for s, local_obs in enumerate(factors):
            for r, letter in local_obs:
                pairs.append((layout.to_global(s, r), letter))
        terms.append(PauliTerm(coeff, tuple(pairs)))
    return Hamiltonian(num_qubits, tuple(terms))


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


def hamiltonian_from_text(text: str) -> Hamiltonian:
    """Parse the line format written by :func:`hamiltonian_to_text`."""
    num_qubits = None
    terms = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if "qubits:" in line:
                num_qubits = int(line.split("qubits:")[1])
            continue
        fields = line.split()
        coeff = float(fields[0])
        factors = []
        for token in fields[1:]:
            letter, qubit = token[0], int(token[1:])
            factors.append((qubit, letter))
        terms.append(PauliTerm(coeff, tuple(factors)))
    if num_qubits is None:
        num_qubits = 1 + max(
            (term.max_qubit() for term in terms if term.factors), default=0
        )
    return Hamiltonian(num_qubits, tuple(terms))
