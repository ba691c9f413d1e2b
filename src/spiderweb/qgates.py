"""Dense unitary algebra on up to five qubits.

Verifies the gate constructions the architecture relies on: the exchange
interaction's native square-root-of-SWAP, the diagonal entangling phase gate
built from two of them, CZ and CNOT built from that phase gate, and the X/Z
stabilizer-measurement plaquette circuits.

Conventions: basis states are |q1 q2 ... qn> with qubit 1 the leftmost tensor
factor (most significant bit); rotations follow the spin-half convention
R_a(theta) = exp(-i*theta*sigma_a/2), so R_z(theta) = diag(e^{-i theta/2},
e^{i theta/2}) and a 2*pi rotation is -I.  Qubit indices are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "Circuit",
    "IdentityCheck",
    "PlacedGate",
    "build_plaquette",
    "compose",
    "concurrence",
    "equal_up_to_global_phase",
    "expand",
    "gate",
    "is_unitary",
    "reference_plaquette",
    "verify_identities",
    "verify_plaquette",
]

_SQRT2 = np.sqrt(2.0)

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / _SQRT2

# Native exchange gate: square root of SWAP.
_SQRT_SWAP = 0.5 * np.array(
    [
        [2, 0, 0, 0],
        [0, 1 + 1j, 1 - 1j, 0],
        [0, 1 - 1j, 1 + 1j, 0],
        [0, 0, 0, 2],
    ],
    dtype=complex,
)

# Diagonal entangling phase gate produced by sqrt(SWAP) . Rz(pi)[1] . sqrt(SWAP)
# up to a -i global phase.
_SP = np.diag([1, 1j, -1j, -1]).astype(complex)

_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
_CZ = np.diag([1, 1, 1, -1]).astype(complex)
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def _rx(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _ry(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(theta: float) -> np.ndarray:
    return np.diag([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)]).astype(complex)


_FIXED_GATES = {
    "i": _I2,
    "x": _X,
    "y": _Y,
    "z": _Z,
    "h": _H,
    "sqrt_swap": _SQRT_SWAP,
    "sp": _SP,
    "sp_dag": _SP.conj().T,
    "swap": _SWAP,
    "cz": _CZ,
    "cnot": _CNOT,
}
_ROTATIONS = {"rx": _rx, "ry": _ry, "rz": _rz}


def gate(name: str, *params: float) -> np.ndarray:
    """Return the matrix of a named gate; rotations take one angle [rad]."""
    if name in _FIXED_GATES:
        if params:
            raise ValueError(f"gate {name!r} takes no parameters")
        return _FIXED_GATES[name].copy()
    if name in _ROTATIONS:
        if len(params) != 1 or not np.isfinite(params[0]):
            raise ValueError(f"gate {name!r} takes exactly one finite angle")
        return _ROTATIONS[name](params[0])
    raise ValueError(f"unknown gate {name!r}")


def is_unitary(matrix: np.ndarray, tol: float = 1e-12) -> bool:
    dim = matrix.shape[0]
    return np.max(np.abs(matrix.conj().T @ matrix - np.eye(dim))) < tol


def _is_diagonal(matrix: np.ndarray, tol: float = 1e-12) -> bool:
    return np.max(np.abs(matrix - np.diag(np.diag(matrix)))) < tol


def expand(matrix: np.ndarray, n_qubits: int, targets: tuple[int, ...]) -> np.ndarray:
    """Embed a k-qubit gate on the given (1-based) targets of an n-qubit register."""
    k = len(targets)
    if matrix.shape != (1 << k, 1 << k):
        raise ValueError(f"gate of shape {matrix.shape} does not fit {k} target(s)")
    if len(set(targets)) != k:
        raise ValueError(f"duplicate targets {targets}")
    for t in targets:
        if not 1 <= t <= n_qubits:
            raise ValueError(f"target {t} out of range 1..{n_qubits}")
    dim = 1 << n_qubits
    # Contract the gate's input axes with the target qubits' row axes of the
    # identity, then put the gate's output axes back at the target positions.
    axes = [t - 1 for t in targets]
    identity = np.eye(dim, dtype=complex).reshape((2,) * n_qubits + (dim,))
    out = np.tensordot(matrix.reshape((2,) * (2 * k)), identity, axes=(range(k, 2 * k), axes))
    return np.moveaxis(out, range(k), axes).reshape(dim, dim)


@dataclass(frozen=True)
class PlacedGate:
    name: str
    targets: tuple[int, ...]
    params: tuple[float, ...] = ()

    def matrix(self) -> np.ndarray:
        return gate(self.name, *self.params)


@dataclass(frozen=True)
class Circuit:
    """An ordered list of time steps, each holding gates that either act on
    disjoint qubits or are mutually commuting diagonals."""

    n_qubits: int
    steps: tuple[tuple[PlacedGate, ...], ...] = ()

    @property
    def depth(self) -> int:
        return len(self.steps)

    def gates(self) -> Iterable[PlacedGate]:
        for step in self.steps:
            yield from step

    def validate(self) -> None:
        if not 1 <= self.n_qubits <= 5:
            raise ValueError("circuits support 1 to 5 qubits")
        for step_index, step in enumerate(self.steps, start=1):
            seen: set[int] = set()
            overlap = False
            for placed in step:
                for t in placed.targets:
                    if not 1 <= t <= self.n_qubits:
                        raise ValueError(
                            f"step {step_index}: target {t} out of range 1..{self.n_qubits}"
                        )
                    if t in seen:
                        overlap = True
                    seen.add(t)
            if overlap and not all(_is_diagonal(p.matrix()) for p in step):
                raise ValueError(
                    f"step {step_index}: overlapping gates must all be diagonal"
                )


def compose(circuit: Circuit) -> np.ndarray:
    """Product of the circuit's step unitaries; later steps multiply on the left."""
    circuit.validate()
    dim = 1 << circuit.n_qubits
    total = np.eye(dim, dtype=complex)
    for step in circuit.steps:
        step_u = np.eye(dim, dtype=complex)
        for placed in step:
            step_u = expand(placed.matrix(), circuit.n_qubits, placed.targets) @ step_u
        total = step_u @ total
    return total


def equal_up_to_global_phase(u: np.ndarray, v: np.ndarray, tol: float = 1e-10) -> bool:
    """True iff u = e^{i phi} v for some phase, within tol in max-norm."""
    if u.shape != v.shape:
        raise ValueError("matrices must have the same shape")
    return _phase_residual(u, v) < tol


def concurrence(state: np.ndarray) -> float:
    """Concurrence of a pure two-qubit state (1 for maximally entangled)."""
    if state.shape != (4,):
        raise ValueError("expected a 4-component state vector")
    yy = np.kron(_Y, _Y)
    return float(abs(state.conj() @ (yy @ state.conj())))


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    residual: float
    tol: float
    up_to_phase: bool = False

    @property
    def passed(self) -> bool:
        return self.residual < self.tol


def _residual(u: np.ndarray, v: np.ndarray) -> float:
    return float(np.max(np.abs(u - v)))


def _phase_residual(u: np.ndarray, v: np.ndarray) -> float:
    """Max-norm distance from u to e^{i phi} v for the best-matching phase.

    The candidate phase is read off the largest-magnitude entry of v^dag u,
    which is proportional to the identity when the matrices match.
    """
    overlap = v.conj().T @ u
    idx = np.unravel_index(np.argmax(np.abs(overlap)), overlap.shape)
    pivot = overlap[idx]
    if abs(pivot) == 0:
        return float("inf")
    return _residual(u, (pivot / abs(pivot)) * v)


def verify_identities(tol: float = 1e-12, corrupt: str | None = None) -> list[IdentityCheck]:
    """Check every gate-construction identity; failures are reported, not raised.

    ``corrupt='sp-sign'`` flips the sign of the phase gate used in the checks
    (a negative-control hook for the verification driver).
    """
    sq = gate("sqrt_swap")
    sp = gate("sp")
    if corrupt == "sp-sign":
        sp = -sp
    elif corrupt is not None:
        raise ValueError(f"unknown corruption {corrupt!r}")
    sp_dag = sp.conj().T
    rz = _rz
    kron = np.kron

    checks = [
        IdentityCheck(
            "sp-from-sqrt-swap",
            _residual(sq @ kron(rz(np.pi), _I2) @ sq, -1j * sp),
            tol,
        ),
        IdentityCheck(
            "sp-dagger-from-sqrt-swap",
            _residual(sq @ kron(_I2, rz(np.pi)) @ sq, -1j * sp_dag),
            tol,
        ),
        IdentityCheck(
            "cz-from-sp",
            _residual(kron(rz(np.pi / 2), rz(-np.pi / 2)) @ sp, _CZ),
            tol,
        ),
        IdentityCheck(
            "cz-from-sp-dagger",
            _residual(kron(rz(-np.pi / 2), rz(np.pi / 2)) @ sp_dag, _CZ),
            tol,
        ),
        IdentityCheck(
            "cnot-from-sp",
            _phase_residual(
                1j
                * kron(rz(np.pi / 2), _I2)
                @ kron(_I2, rz(np.pi / 2))
                @ kron(_I2, _rx(np.pi / 2))
                @ sp
                @ kron(_I2, _H),
                _CNOT,
            ),
            tol,
            up_to_phase=True,
        ),
        IdentityCheck("hadamard-ry-z", _residual(_ry(np.pi / 2) @ _Z, _H), tol),
        IdentityCheck("hadamard-z-ry", _residual(_Z @ _ry(-np.pi / 2), _H), tol),
        IdentityCheck("sqrt-swap-squared", _residual(sq @ sq, _SWAP), tol),
        IdentityCheck("sp-squared", _residual(sp @ sp, kron(_Z, _Z)), tol),
    ]
    return checks


# Plaquette circuits: qubit 1 is the measured ancilla, qubits 2..5 the data.
_ANCILLA = 1
_DATA = (2, 3, 4, 5)


def build_plaquette(kind: str, corrupt: bool = False) -> Circuit:
    """Five-qubit stabilizer-measurement circuit using the diagonal phase gate.

    X plaquette: every qubit is rotated into/out of the Hadamard frame with
    y-rotations, the data additionally pick up a z-dressing, and the four
    ancilla-data interactions are phase gates applied in time order.
    Z plaquette: only the ancilla is y-rotated; the data receive a single
    z-rotation at the onset (its placement among the diagonal interactions
    is immaterial).

    ``corrupt=True`` flips the sign of the first data qubit's z-dressing, a
    deliberate fault that must break the stabilizer equivalence.
    """
    dress_sign = +1.0 if not corrupt else -1.0
    sp_steps = tuple(
        (PlacedGate("sp", (_ANCILLA, d)),) for d in _DATA
    )
    if kind == "X":
        first_rz = PlacedGate("rz", (_DATA[0],), (dress_sign * -np.pi / 2,))
        steps = (
            tuple(PlacedGate("ry", (q,), (-np.pi / 2,)) for q in (_ANCILLA, *_DATA)),
            (first_rz, *(PlacedGate("rz", (d,), (-np.pi / 2,)) for d in _DATA[1:])),
            *sp_steps,
            tuple(PlacedGate("ry", (q,), (np.pi / 2,)) for q in (_ANCILLA, *_DATA)),
        )
    elif kind == "Z":
        first_rz = PlacedGate("rz", (_DATA[0],), (dress_sign * -np.pi / 2,))
        steps = (
            (
                PlacedGate("ry", (_ANCILLA,), (-np.pi / 2,)),
                first_rz,
                *(PlacedGate("rz", (d,), (-np.pi / 2,)) for d in _DATA[1:]),
            ),
            *sp_steps,
            (PlacedGate("ry", (_ANCILLA,), (np.pi / 2,)),),
        )
    else:
        raise ValueError(f"unknown plaquette kind {kind!r}; expected 'X' or 'Z'")
    return Circuit(n_qubits=5, steps=steps)


def reference_plaquette(kind: str) -> np.ndarray:
    """Textbook stabilizer-measurement unitary the plaquette circuit must match.

    Both kinds reduce to controlled-phase interactions between the ancilla
    and each data qubit, conjugated by Hadamards: on every qubit for the X
    stabilizer, on the ancilla alone for the Z stabilizer.
    """
    n = 5
    cz_chain = np.eye(1 << n, dtype=complex)
    for d in _DATA:
        cz_chain = expand(_CZ, n, (_ANCILLA, d)) @ cz_chain
    if kind == "X":
        h_wall = np.eye(1 << n, dtype=complex)
        for q in (_ANCILLA, *_DATA):
            h_wall = expand(_H, n, (q,)) @ h_wall
    elif kind == "Z":
        h_wall = expand(_H, n, (_ANCILLA,))
    else:
        raise ValueError(f"unknown plaquette kind {kind!r}; expected 'X' or 'Z'")
    return h_wall @ cz_chain @ h_wall


def verify_plaquette(kind: str, tol: float = 1e-10, corrupt: bool = False) -> bool:
    """True iff the plaquette circuit equals its reference up to a global phase."""
    built = compose(build_plaquette(kind, corrupt=corrupt))
    return equal_up_to_global_phase(built, reference_plaquette(kind), tol)
