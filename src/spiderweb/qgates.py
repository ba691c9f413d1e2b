"""Dense unitary algebra on up to five qubits.

Verifies the gate constructions the architecture relies on: the exchange
interaction's native square-root-of-SWAP, the diagonal entangling phase gate
built from two of them, CZ and CNOT built from that phase gate, and the X/Z
stabilizer-measurement plaquette circuits.

Conventions: basis states are |q1 q2 ... qn> with qubit 1 the leftmost tensor
factor (most significant bit); rotations follow the spin-half convention
R_a(theta) = exp(-i*theta*sigma_a/2), so R_z(theta) = diag(e^{-i theta/2},
e^{i theta/2}) and a 2*pi rotation is -I.  Qubit indices are 1-based.

Matrices are lists of rows of Python complex numbers: at 32x32 at most, plain
Python costs less than importing an array package.  The two plaquette
references depend on nothing but their kind, and the layout of a gate's targets
on nothing but the register size and the targets, so each is a
``functools.cache``: built on its first call and kept for the process, a
reference as an immutable tuple of row tuples.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from functools import cache, partial, reduce
from itertools import chain, repeat
from operator import mul, sub

from .model import record

__all__ = ["Circuit", "IdentityCheck", "PlacedGate", "build_plaquette", "compose", "expand",
           "gate", "reference_plaquette", "verify_identities", "verify_plaquette"]

Matrix = Sequence[Sequence[complex]]

# Max-norm tolerances of the identity checks and of the plaquette equivalence.
_IDENTITY_TOL = 1e-12
_PLAQUETTE_TOL = 1e-10


def _m(*rows) -> tuple[tuple[complex, ...], ...]:
    return tuple(tuple(complex(v) for v in row) for row in rows)


def _dagger(matrix: Matrix) -> list[list[complex]]:
    return [[v.conjugate() for v in col] for col in zip(*matrix)]


_R = 1 / math.sqrt(2.0)
_I2 = _m((1, 0), (0, 1))
_X = _m((0, 1), (1, 0))
_Y = _m((0, -1j), (1j, 0))
_Z = _m((1, 0), (0, -1))
_H = _m((_R, _R), (_R, -_R))
# Native exchange gate: square root of SWAP.
_SQRT_SWAP = _m((1, 0, 0, 0), (0, 0.5 + 0.5j, 0.5 - 0.5j, 0), (0, 0.5 - 0.5j, 0.5 + 0.5j, 0), (0, 0, 0, 1))
# Diagonal entangling phase gate produced by sqrt(SWAP) . Rz(pi)[1] . sqrt(SWAP)
# up to a -i global phase.
_SP = _m((1, 0, 0, 0), (0, 1j, 0, 0), (0, 0, -1j, 0), (0, 0, 0, -1))
_SWAP = _m((1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1))
_CZ = _m((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1))
_CNOT = _m((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))
_FIXED_GATES = {"i": _I2, "x": _X, "y": _Y, "z": _Z, "h": _H, "sqrt_swap": _SQRT_SWAP, "sp": _SP,
                "sp_dag": _dagger(_SP), "swap": _SWAP, "cz": _CZ, "cnot": _CNOT}
_ARITY = {**{name: len(m) // 2 for name, m in _FIXED_GATES.items()}, "rx": 1, "ry": 1, "rz": 1}  # qubits acted on


def gate(name: str, *params: float) -> list[list[complex]]:
    """Return the matrix of a named gate; rotations take one angle [rad]."""
    if name in _FIXED_GATES:
        if params:
            raise ValueError(f"gate {name!r} takes no parameters")
        return [list(row) for row in _FIXED_GATES[name]]
    if name not in ("rx", "ry", "rz"):
        raise ValueError(f"unknown gate {name!r}")
    if len(params) != 1 or not math.isfinite(params[0]):
        raise ValueError(f"gate {name!r} takes exactly one finite angle")
    theta = params[0]
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    if name == "rx":
        return [[complex(c), -1j * s], [-1j * s, complex(c)]]
    if name == "ry":
        return [[complex(c), complex(-s)], [complex(s), complex(c)]]
    return [[cmath.exp(-1j * theta / 2), 0j], [0j, cmath.exp(1j * theta / 2)]]


def _matmul(a: Matrix, b: Matrix) -> list[list[complex]]:
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


@cache
def _layout(n_qubits: int, targets: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Bit mask of the targets in a register index, and for each register index
    the gate index its target bits form (the first target most significant)."""
    offsets = [0]
    for t in targets:
        offsets = [o | b for o in offsets for b in (0, 1 << (n_qubits - t))]
    position = {o: g for g, o in reversed(list(enumerate(offsets)))}  # a repeated target: the first wins
    return offsets[-1], tuple([position[i & offsets[-1]] for i in range(1 << n_qubits)])


def expand(matrix: Matrix, n_qubits: int, targets: tuple[int, ...]) -> list[list[complex]]:
    """Embed a k-qubit gate on the given (1-based) targets of an n-qubit register."""
    k = len(targets)
    if len(matrix) != 1 << k or any(len(row) != 1 << k for row in matrix):
        raise ValueError(f"gate of shape {(len(matrix), len(matrix[0]) if len(matrix) else 0)} "
                         f"does not fit {k} target(s)")
    if len(set(targets)) != k:
        raise ValueError(f"duplicate targets {targets}")
    for t in targets:
        if not 1 <= t <= n_qubits:
            raise ValueError(f"target {t} out of range 1..{n_qubits}")
    mask, index = _layout(n_qubits, tuple(targets))
    m = [[complex(v) for v in row] for row in matrix]
    return [[m[index[r]][index[c]] if r & ~mask == c & ~mask else 0j for c in range(len(index))]
            for r in range(len(index))]


class PlacedGate(metaclass=record):
    name: str
    targets: tuple[int, ...]
    params: tuple[float, ...] = ()

    def matrix(self) -> list[list[complex]]:
        return gate(self.name, *self.params)


class Circuit(metaclass=record):
    """An ordered list of time steps, each holding gates that act on disjoint qubits."""

    n_qubits: int
    steps: tuple[tuple[PlacedGate, ...], ...] = ()

    def validate(self) -> None:
        if not 1 <= self.n_qubits <= 5:
            raise ValueError("circuits support 1 to 5 qubits")
        for step_index, step in enumerate(self.steps, start=1):
            for placed in step:  # as expand checks them; an unknown name fails in gate()
                if not len(set(placed.targets)) == len(placed.targets) == _ARITY.get(placed.name, len(placed.targets)):
                    raise ValueError(f"step {step_index}: gate {placed.name!r} does not fit targets {placed.targets}")
            targets = [t for placed in step for t in placed.targets]
            for t in targets:
                if not 1 <= t <= self.n_qubits:
                    raise ValueError(f"step {step_index}: target {t} out of range 1..{self.n_qubits}")
            if len(set(targets)) < len(targets):
                raise ValueError(f"step {step_index}: gates overlap on a qubit, diagonal or not")


def _sandwich(outer: list[Matrix], phases: list[complex], inner: list[Matrix]) -> list[list[complex]]:
    """``outer @ diag(phases) @ inner`` for two layers of one-qubit gates (a 2x2
    per qubit, qubit 1 first): entry (i, j) sums phases[k] * prod_q
    outer_q[i_q][k_q] * inner_q[k_q][j_q] over k.  Summing out k's bits from the
    last qubit up takes 2 * 4^n products against 5 * 4^n for row butterflies;
    after m qubits ``level`` is indexed (i, j, rest of k), i and j m bits each."""
    level, size = phases, 1
    for b, a in zip(reversed(outer), reversed(inner)):
        even, odd = level[0::2], level[1::2]
        blocks = []
        for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
            t0, t1 = b[i][0] * a[0][j], b[i][1] * a[1][j]
            if t0 and t1:
                blocks.append([t0 * x + t1 * y for x, y in zip(even, odd)])
            else:  # one term at most: identity factors leave copies and zeros
                c, src = (t0, even) if t0 else (t1, odd)
                blocks.append(src if c == 1 else [c * x for x in src] if c else [0j] * len(src))
        # the new row bit i is the top one, so each row is a j = 0 half then a j = 1 half
        width = len(even) // size
        level = list(chain.from_iterable(block[r:r + width] for pair in (blocks[:2], blocks[2:])
                                         for r in range(0, len(even), width) for block in pair))
        size *= 2
    return [level[r:r + size] for r in range(0, size * size, size)]


def compose(circuit: Circuit) -> list[list[complex]]:
    """Product of the circuit's step unitaries; later steps multiply on the left.

    One form, the plaquette's: one-qubit gates, diagonal gates, one-qubit gates,
    any part left out.  A step's non-diagonal gates, one qubit each, are the
    inner layer if no gate came before them, else the outer; every diagonal gate
    multiplies into one phase vector, after its step's layer, and one
    ``_sandwich(outer, phases, inner)`` is the product.  Any other circuit
    raises ``ValueError`` naming the step.
    """
    circuit.validate()
    n = circuit.n_qubits
    inner = outer = phases = None
    for step_index, step in enumerate(circuit.steps, start=1):
        layer, diagonal = {}, []
        for placed in step:
            m = placed.matrix()
            if not any(any(row[:i]) or any(row[i + 1:]) for i, row in enumerate(m)):  # diagonal: all else exactly 0
                diagonal.append(([row[i] for i, row in enumerate(m)], tuple(placed.targets)))
            elif len(placed.targets) == 1:
                layer[placed.targets[0]] = m
            else:
                raise ValueError(f"step {step_index}: gate {placed.name!r} is neither diagonal nor on one qubit")
        if (outer and step) or (layer and diagonal and (inner or phases)):
            raise ValueError(f"step {step_index}: a gate after the outer layer of one-qubit gates")
        if layer:
            new = [layer.get(q, _I2) for q in range(1, n + 1)]
            inner, outer = (inner, new) if inner or phases else (new, None)
        for d, targets in diagonal:
            d = [d[g] for g in _layout(n, targets)[1]]
            phases = d if phases is None else list(map(mul, phases, d))
    return _sandwich(outer or [_I2] * n, phases or [1 + 0j] * (1 << n), inner or [_I2] * n)


class IdentityCheck(metaclass=record):
    name: str
    residual: float

    @property
    def passed(self) -> bool:
        return self.residual < _IDENTITY_TOL


def _residual(u: Matrix, v: Matrix, phase: complex = 1) -> float:
    return max(map(abs, map(sub, chain.from_iterable(u), map(mul, repeat(phase), chain.from_iterable(v)))))


def _phase_residual(u: Matrix, v: Matrix) -> float:
    """Max-norm distance from u to e^{i phi} v, phi read off the largest entry
    of v's first nonzero row (an O(dim) search; |pivot| >= 1/sqrt(dim) for a
    unitary): when u = e^{i phi} v, u there times conj(v) is e^{i phi} |v|^2."""
    i = next((i for i, row in enumerate(v) if any(row)), 0)
    j = max(range(len(v[i])), key=lambda j: abs(v[i][j]))
    pivot = complex(u[i][j]) * complex(v[i][j]).conjugate()
    if abs(pivot) == 0:
        return float("inf")
    return _residual(u, v, pivot / abs(pivot))


# Kronecker products round as numpy's multiply kernel does: each part of a complex
# product is one fused multiply-add, a*b + round(c*d) rounded once.  That keeps the
# residuals ``verify`` printed when it ran on numpy.

def _fma(x: float, y: float, z: float) -> float:
    """x*y + z rounded once, from exact integer ratios."""
    if not (x and y and z):
        return x * y + z
    (a, b), (c, d), (e, f) = x.as_integer_ratio(), y.as_integer_ratio(), z.as_integer_ratio()
    return (a * c * f + e * b * d) / (b * d * f)


def _kron(a: Matrix, b: Matrix) -> list[list[complex]]:
    return [[complex(_fma(x.real, y.real, -(x.imag * y.imag)), _fma(x.real, y.imag, x.imag * y.real))
             for x in ra for y in rb] for ra in a for rb in b]


def verify_identities(corrupt: bool = False) -> list[IdentityCheck]:
    """Check every gate-construction identity; failures are reported, not raised.

    ``corrupt=True`` flips the sign of the phase gate used in the checks
    (a negative-control hook for the verification driver).
    """
    def times(c: complex, matrix: Matrix) -> list[list[complex]]:  # exact for c = +-1, +-i
        return [[c * v for v in row] for row in matrix]

    sq, sp = _SQRT_SWAP, _SP
    if corrupt:
        sp = times(-1, sp)
    sp_dag = _dagger(sp)
    rx, ry, rz = (partial(gate, axis) for axis in ("rx", "ry", "rz"))
    pi = math.pi

    pairs = {  # expand(g, 2, (1,)) is kron(g, I2) and expand(g, 2, (2,)) is kron(I2, g)
        "sp-from-sqrt-swap": (reduce(_matmul, (sq, expand(rz(pi), 2, (1,)), sq)), times(-1j, sp)),
        "sp-dagger-from-sqrt-swap": (reduce(_matmul, (sq, expand(rz(pi), 2, (2,)), sq)), times(-1j, sp_dag)),
        "cz-from-sp": (_matmul(_kron(rz(pi / 2), rz(-pi / 2)), sp), _CZ),
        "cz-from-sp-dagger": (_matmul(_kron(rz(-pi / 2), rz(pi / 2)), sp_dag), _CZ),
        "cnot-from-sp": (reduce(_matmul, (times(1j, expand(rz(pi / 2), 2, (1,))),
                                           expand(rz(pi / 2), 2, (2,)), expand(rx(pi / 2), 2, (2,)),
                                           sp, expand(_H, 2, (2,)))), _CNOT),
        "hadamard-ry-z": (_matmul(ry(pi / 2), _Z), _H),
        "hadamard-z-ry": (_matmul(_Z, ry(-pi / 2)), _H),
        "sqrt-swap-squared": (_matmul(sq, sq), _SWAP),
        "sp-squared": (_matmul(sp, sp), _kron(_Z, _Z)),
    }
    # only the CNOT construction carries a free global phase
    return [IdentityCheck(name, _phase_residual(u, v) if name == "cnot-from-sp" else _residual(u, v))
            for name, (u, v) in pairs.items()]


# Plaquette circuits: qubit 1 is the ancilla read out, qubits 2..5 the data.
_ANCILLA = 1
_DATA = (2, 3, 4, 5)
_QUBITS = (_ANCILLA, *_DATA)


def _wall(name: str, qubits: tuple[int, ...], *params: float) -> tuple[PlacedGate, ...]:
    return tuple(PlacedGate(name, (q,), params) for q in qubits)


def build_plaquette(kind: str, corrupt: bool = False) -> Circuit:
    """Five-qubit stabilizer-measurement circuit using the diagonal phase gate.

    X plaquette: every qubit is rotated into/out of the Hadamard frame with
    y-rotations, the data additionally pick up a z-dressing, and the four
    ancilla-data interactions are phase gates applied in time order.
    Z plaquette: only the ancilla is y-rotated; the data receive a single
    z-rotation at the onset (its placement among the diagonal interactions
    is immaterial).  ``corrupt=True`` flips the sign of the first data qubit's
    z-dressing, a deliberate fault that must break the stabilizer equivalence.
    """
    quarter = math.pi / 2
    sp_steps = tuple((PlacedGate("sp", (_ANCILLA, d)),) for d in _DATA)
    dressing = tuple(PlacedGate("rz", (d,), (quarter if corrupt and d == _DATA[0] else -quarter,))
                     for d in _DATA)
    if kind == "X":
        steps = (_wall("ry", _QUBITS, -quarter), dressing, *sp_steps, _wall("ry", _QUBITS, quarter))
    elif kind == "Z":
        steps = ((PlacedGate("ry", (_ANCILLA,), (-quarter,)), *dressing), *sp_steps,
                 _wall("ry", (_ANCILLA,), quarter))
    else:
        raise ValueError(f"unknown plaquette kind {kind!r}; expected 'X' or 'Z'")
    return Circuit(n_qubits=5, steps=steps)


@cache
def reference_plaquette(kind: str) -> tuple[tuple[complex, ...], ...]:
    """Textbook stabilizer-measurement unitary the plaquette circuit must match.

    Both kinds reduce to controlled-phase interactions between the ancilla
    and each data qubit, conjugated by Hadamards: on every qubit for the X
    stabilizer, on the ancilla alone for the Z stabilizer.  Composed on the
    first call for each kind; later calls return that same tuple.
    """
    if kind not in ("X", "Z"):
        raise ValueError(f"unknown plaquette kind {kind!r}; expected 'X' or 'Z'")
    h_wall = _wall("h", _QUBITS if kind == "X" else (_ANCILLA,))
    cz_chain = tuple((PlacedGate("cz", (_ANCILLA, d)),) for d in _DATA)
    return tuple(map(tuple, compose(Circuit(n_qubits=5, steps=(h_wall, *cz_chain, h_wall)))))


def verify_plaquette(kind: str, corrupt: bool = False) -> bool:
    """True iff the plaquette circuit equals its reference up to a global phase,
    within ``_PLAQUETTE_TOL`` in max-norm."""
    return _phase_residual(compose(build_plaquette(kind, corrupt)), reference_plaquette(kind)) < _PLAQUETTE_TOL
