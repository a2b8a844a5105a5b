"""Reference computations made apart from the hybridtn package.

Nothing here imports hybridtn, so a fault in the package cannot hide in
its own check.  The inputs are plain data the package hands out:

* Hamiltonians in the line format of ``hamiltonian.txt``
  (``<coefficient> <letter><qubit> ...``, one term per line);
* circuits as gate lists (``{"kind", "targets", "param" | "angle"}``);
* two-layer tree states as a root (a circuit or MPS cores) over binary
  branch families.

Conventions, taken from the ``hybridtn.statevector`` docstring: qubit 0 is
the least significant bit of an amplitude index; ``R_P(t) = exp(-i t P/2)``;
``RZZ(t) = exp(-i t Z (x) Z)`` with no half angle.  Branch s of a two-layer
tree occupies global qubits ``[s*n, (s+1)*n)``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

_I2 = np.eye(2, dtype=complex)
_PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)


# ---------------------------------------------------------------------------
# Hamiltonians

def parse_hamiltonian(text: str) -> tuple[int, list]:
    """(num_qubits, [(coefficient, ((qubit, letter), ...)), ...])."""
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
        factors = tuple((int(tok[1:]), tok[0]) for tok in fields[1:])
        terms.append((float(fields[0]), factors))
    if num_qubits is None:
        raise ValueError("Hamiltonian text has no '# qubits:' header")
    return num_qubits, terms


def pauli_sparse(num_qubits: int, terms) -> scipy.sparse.csr_matrix:
    """Sum of Pauli strings as a sparse matrix.

    A string maps basis state |x> to phase(x) |x ^ flip>, where ``flip``
    marks the X and Y factors and every factor contributes its own phase:
    Z gives (-1)^b, Y gives i (-1)^b, X gives 1 (b is the qubit's bit).
    """
    dim = 1 << num_qubits
    basis = np.arange(dim)
    rows, cols, vals = [], [], []
    for coeff, factors in terms:
        flip = 0
        phase = np.full(dim, complex(coeff))
        for qubit, letter in factors:
            if not 0 <= qubit < num_qubits:
                raise ValueError(f"qubit {qubit} outside {num_qubits} qubits")
            sign = 1 - 2 * ((basis >> qubit) & 1)
            if letter == "Z":
                phase *= sign
            elif letter == "Y":
                flip |= 1 << qubit
                phase *= 1j * sign
            elif letter == "X":
                flip |= 1 << qubit
            else:
                raise ValueError(f"bad Pauli letter {letter!r}")
        rows.append(basis ^ flip)
        cols.append(basis)
        vals.append(phase)
    if not terms:
        return scipy.sparse.csr_matrix((dim, dim), dtype=complex)
    coo = scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    )
    return coo.tocsr()  # sums duplicate entries


def ground_energy(matrix, seed: int) -> float:
    """Lowest eigenvalue by ``eigsh`` from a seeded start vector."""
    dim = matrix.shape[0]
    rng = np.random.default_rng(seed)
    v0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    vals = scipy.sparse.linalg.eigsh(
        matrix, k=1, which="SA", v0=v0, tol=1e-12, return_eigenvectors=False
    )
    return float(vals[0])


# ---------------------------------------------------------------------------
# circuits as full matrices

def _embed_1q(gate: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """Full 2**n matrix of a one-qubit gate; qubit n-1 is the left factor."""
    out = np.array([[1.0 + 0j]])
    for q in range(n - 1, -1, -1):
        out = np.kron(out, gate if q == qubit else _I2)
    return out


def _rotation(letter: str, theta: float) -> np.ndarray:
    return np.cos(theta / 2) * _I2 - 1j * np.sin(theta / 2) * _PAULI[letter]


def gate_full_matrix(op: dict, params, n: int) -> np.ndarray:
    """Full 2**n matrix of one gate from a gate-list entry."""
    kind, targets = op["kind"], tuple(op["targets"])
    theta = None
    if kind in ("RX", "RY", "RZ", "RZZ"):
        theta = float(params[op["param"]]) if "param" in op else float(op["angle"])
    if kind in ("RX", "RY", "RZ"):
        return _embed_1q(_rotation(kind[1], theta), targets[0], n)
    if kind == "H":
        return _embed_1q(_H, targets[0], n)
    if kind == "X":
        return _embed_1q(_PAULI["X"], targets[0], n)
    basis = np.arange(1 << n)
    bit_a = (basis >> targets[0]) & 1
    bit_b = (basis >> targets[1]) & 1
    if kind == "RZZ":
        zz = (1 - 2 * bit_a) * (1 - 2 * bit_b)
        return np.diag(np.exp(-1j * theta * zz))
    if kind == "CNOT":
        perm = np.zeros((1 << n, 1 << n), dtype=complex)
        perm[basis ^ (bit_a << targets[1]), basis] = 1.0
        return perm
    raise ValueError(f"unknown gate kind {kind!r}")


def circuit_states(circuit: dict, params, initial: list[int]) -> np.ndarray:
    """Rows U|b> for each initial basis index b; shape (len(initial), 2**n)."""
    n = circuit["num_qubits"]
    states = np.zeros((1 << n, len(initial)), dtype=complex)
    for col, index in enumerate(initial):
        states[index, col] = 1.0
    for op in circuit["ops"]:
        states = gate_full_matrix(op, params, n) @ states
    return states.T


# ---------------------------------------------------------------------------
# two-layer tree states

def mps_amplitudes(cores) -> np.ndarray:
    """alpha[i_0, ..., i_{k-1}] as the product of the core matrices."""
    k = len(cores)
    alpha = np.zeros((2,) * k, dtype=complex)
    for labels in np.ndindex(*alpha.shape):
        acc = np.eye(1, dtype=complex)
        for core, label in zip(cores, labels):
            acc = acc @ core[:, label, :]
        alpha[labels] = acc[0, 0]
    return alpha


def circuit_root_amplitudes(circuit: dict, params) -> np.ndarray:
    """alpha[i_0, ..., i_{k-1}] = <i|V|0..0>, root qubit s carrying i_s."""
    k = circuit["num_qubits"]
    root = circuit_states(circuit, params, [0])[0]
    alpha = np.zeros((2,) * k, dtype=complex)
    for labels in np.ndindex(*alpha.shape):
        alpha[labels] = root[sum(bit << s for s, bit in enumerate(labels))]
    return alpha


def tree_state(alpha: np.ndarray, families) -> np.ndarray:
    """sum_i alpha[i] |phi_{k-1}^{i_{k-1}}> (x) ... (x) |phi_0^{i_0}>."""
    k = len(families)
    dim = int(np.prod([fam.shape[1] for fam in families]))
    psi = np.zeros(dim, dtype=complex)
    for labels in np.ndindex(*alpha.shape):
        piece = np.array([1.0 + 0j])
        for s in range(k - 1, -1, -1):
            piece = np.kron(piece, families[s][labels[s]])
        psi += alpha[labels] * piece
    return psi


def rebuild_tree_state(desc: dict) -> np.ndarray:
    """Dense state of a two-layer tree from its plain-data description.

    ``desc["root"]`` is ``{"circuit", "params"}`` or ``{"mps_cores"}``
    with each core as ``{"re", "im"}`` nested lists; ``desc["branches"]``
    lists ``{"circuit", "params", "initial"}``, where ``initial`` holds the
    two basis indices the branch family starts from.
    """
    root = desc["root"]
    if "mps_cores" in root:
        cores = [np.array(c["re"]) + 1j * np.array(c["im"]) for c in root["mps_cores"]]
        alpha = mps_amplitudes(cores)
    else:
        alpha = circuit_root_amplitudes(root["circuit"], root["params"])
    families = [
        circuit_states(b["circuit"], b["params"], b["initial"])
        for b in desc["branches"]
    ]
    return tree_state(alpha, families)


def state_energy(psi: np.ndarray, matrix) -> tuple[float, float]:
    """(<psi|psi>, <psi|H|psi>) for a dense state and a sparse H."""
    norm = float(np.vdot(psi, psi).real)
    energy = float(np.vdot(psi, matrix @ psi).real)
    return norm, energy
