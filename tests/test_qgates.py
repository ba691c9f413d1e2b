import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spiderweb import qgates
from spiderweb.qgates import (
    Circuit,
    PlacedGate,
    build_plaquette,
    compose,
    _layout,
    _phase_residual,
    _residual,
    expand,
    gate,
    reference_plaquette,
    verify_identities,
    verify_plaquette,
)

ALL_FIXED = ["i", "x", "y", "z", "h", "sqrt_swap", "sp", "sp_dag", "swap", "cz", "cnot"]


def is_unitary(matrix, tol: float = 1e-12) -> bool:
    m = np.asarray(matrix)
    return float(np.max(np.abs(m.conj().T @ m - np.eye(len(m))))) < tol


class TestGates:
    @pytest.mark.parametrize("name", ALL_FIXED)
    def test_fixed_gates_unitary(self, name):
        assert is_unitary(gate(name))

    @pytest.mark.parametrize("name", ["rx", "ry", "rz"])
    @pytest.mark.parametrize("theta", [0.0, 0.3, np.pi / 2, np.pi, 2 * np.pi, -1.7])
    def test_rotations_unitary(self, name, theta):
        assert is_unitary(gate(name, theta))

    def test_sqrt_swap_squares_to_swap(self):
        sq = np.asarray(gate("sqrt_swap"))
        assert np.max(np.abs(sq @ sq - gate("swap"))) < 1e-12

    def test_sp_matrix(self):
        assert np.array_equal(gate("sp"), np.diag([1, 1j, -1j, -1]))

    def test_sp_times_dagger_is_identity(self):
        assert np.max(np.abs(np.asarray(gate("sp")) @ gate("sp_dag") - np.eye(4))) < 1e-12

    def test_sp_squared_is_zz(self):
        zz = np.kron(gate("z"), gate("z"))
        assert np.max(np.abs(np.asarray(gate("sp")) @ gate("sp") - zz)) < 1e-12

    def test_full_z_rotation_is_minus_identity(self):
        assert np.max(np.abs(np.asarray(gate("rz", 2 * np.pi)) + np.eye(2))) < 1e-12

    def test_rotation_conventions(self):
        rz = np.asarray(gate("rz", np.pi / 2))
        assert rz[0, 0] == pytest.approx(np.exp(-1j * np.pi / 4))
        ry = np.asarray(gate("ry", np.pi / 2))
        assert ry[0, 1] == pytest.approx(-np.sin(np.pi / 4))
        rx = np.asarray(gate("rx", np.pi))
        assert rx[0, 1] == pytest.approx(-1j)

    def test_unknown_gate_rejected(self):
        with pytest.raises(ValueError, match="unknown gate"):
            gate("toffoli")

    def test_rotation_needs_angle(self):
        with pytest.raises(ValueError):
            gate("rz")
        with pytest.raises(ValueError):
            gate("h", 1.0)


class TestExpand:
    def test_single_qubit_on_first(self):
        got = expand(gate("z"), 2, (1,))
        assert np.array_equal(got, np.kron(gate("z"), np.eye(2)))

    def test_single_qubit_on_last(self):
        got = expand(gate("z"), 3, (3,))
        assert np.array_equal(got, np.kron(np.eye(4), gate("z")))

    def test_two_qubit_reversed_targets(self):
        # CNOT with control on qubit 2, target on qubit 1
        got = expand(gate("cnot"), 2, (2, 1))
        expected = np.array(
            [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
        )
        assert np.array_equal(got, expected)

    def test_embedding_preserves_unitarity(self):
        assert is_unitary(expand(gate("sqrt_swap"), 5, (2, 4)))

    def test_bad_targets_rejected(self):
        with pytest.raises(ValueError):
            expand(gate("cz"), 3, (1, 1))
        with pytest.raises(ValueError):
            expand(gate("z"), 2, (3,))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_kron_permutation_oracle(self, n):
        # independent construction: act on the k leading qubits, then
        # conjugate with the bit-permutation matrix
        def perm_matrix(order):
            dim = 1 << n
            p = np.zeros((dim, dim))
            for b in range(dim):
                bits = [(b >> (n - 1 - q)) & 1 for q in range(n)]
                new = 0
                for i, src in enumerate(order):
                    new |= bits[src] << (n - 1 - i)
                p[new, b] = 1.0
            return p

        def random_unitary(k):
            dim = 1 << k
            q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
            return q

        rng = np.random.default_rng(20261017 + n)
        gates = (np.asarray(gate("h")), random_unitary(1), np.asarray(gate("sqrt_swap")),
                 np.asarray(gate("cnot")), random_unitary(2), random_unitary(3))
        for u in gates:
            k = u.shape[0].bit_length() - 1
            for targets in itertools.permutations(range(1, n + 1), k):
                rest = [q for q in range(n) if q + 1 not in targets]
                p = perm_matrix([t - 1 for t in targets] + rest)
                reference = p.T @ np.kron(u, np.eye(1 << (n - k))) @ p
                assert np.max(np.abs(np.asarray(expand(u, n, targets)) - reference)) < 1e-14


class TestCompose:
    def test_empty_circuit(self):
        assert np.array_equal(compose(Circuit(2)), np.eye(4))

    def test_later_steps_left_multiply(self):
        circuit = Circuit(1, (
            (PlacedGate("h", (1,)),),
            (PlacedGate("z", (1,)),),
        ))
        assert np.max(np.abs(np.asarray(compose(circuit)) - np.asarray(gate("z")) @ gate("h"))) < 1e-12

    def test_overlapping_non_diagonal_step_rejected(self):
        circuit = Circuit(2, (
            (PlacedGate("h", (1,)), PlacedGate("z", (1,))),
        ))
        with pytest.raises(ValueError, match="diagonal"):
            compose(circuit)

    def test_overlapping_diagonal_step_rejected(self):
        # a step's gates act on disjoint qubits, diagonal ones too
        circuit = Circuit(2, (
            (PlacedGate("sp", (1, 2)), PlacedGate("rz", (1,), (np.pi / 2,))),
        ))
        with pytest.raises(ValueError) as err:
            compose(circuit)
        assert str(err.value) == "step 1: gates overlap on a qubit, diagonal or not"

    @pytest.mark.parametrize("name", ["sqrt_swap", "swap", "cnot"])
    def test_non_diagonal_two_qubit_gate_rejected(self, name):
        circuit = Circuit(3, ((PlacedGate("h", (1,)),), (PlacedGate(name, (2, 3)),)))
        with pytest.raises(ValueError) as err:
            compose(circuit)
        assert str(err.value) == f"step 2: gate {name!r} is neither diagonal nor on one qubit"

    @pytest.mark.parametrize("steps, step", [
        (((PlacedGate("h", (1,)),), (PlacedGate("x", (2,)),), (PlacedGate("z", (1,)),)), 3),
        (((PlacedGate("h", (1,)),), (PlacedGate("x", (2,)),), (), (PlacedGate("y", (1,)),)), 4),
        (((PlacedGate("cz", (1, 2)),), (PlacedGate("h", (1,)), PlacedGate("z", (2,)))), 2),
    ], ids=["diagonal-after-outer", "layer-after-outer", "diagonal-beside-outer"])
    def test_gate_after_the_outer_layer_rejected(self, steps, step):
        with pytest.raises(ValueError) as err:
            compose(Circuit(2, steps))
        assert str(err.value) == f"step {step}: a gate after the outer layer of one-qubit gates"

    def test_out_of_range_target_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            compose(Circuit(2, ((PlacedGate("z", (5,)),),)))

    @pytest.mark.parametrize("placed", [
        PlacedGate("cz", (1,)),
        PlacedGate("cz", (1, 1)),
        PlacedGate("rz", (1, 2), (0.3,)),
    ], ids=["two-qubit-gate-one-target", "duplicate-targets", "one-qubit-gate-two-targets"])
    def test_gate_that_does_not_fit_its_targets_rejected(self, placed, cold_caches):
        # as expand rejects them, before any target reaches the layout memo
        with pytest.raises(ValueError) as err:
            compose(Circuit(2, ((placed,),)))
        assert str(err.value) == f"step 1: gate {placed.name!r} does not fit targets {placed.targets}"
        assert _layout.cache_info().currsize == 0


class TestGlobalPhase:
    def test_negated_matrix_equal(self):
        u = np.asarray(gate("sqrt_swap"))
        assert _phase_residual(u, -u) < 1e-12

    def test_cz_construction_is_phase_free(self):
        built = np.diag([1, -1j, 1j, 1]).astype(complex) @ gate("sp")
        assert np.max(np.abs(built - gate("cz"))) < 1e-12

    def test_distinct_gates_not_equal(self):
        assert _phase_residual(np.eye(2, dtype=complex), gate("x")) >= 1e-10

    def test_random_phase_recovered(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            u = np.asarray(gate("sqrt_swap"))
            assert _phase_residual(phase * u, u) < 1e-10


class TestIdentities:
    def test_all_pass_at_tight_tolerance(self):
        checks = verify_identities()
        assert all(c.passed for c in checks)
        assert max(c.residual for c in checks) < 1e-12
        assert not qgates.IdentityCheck("x", 1e-12).passed
        assert qgates.IdentityCheck("x", math.nextafter(1e-12, 0)).passed

    def test_expected_identity_set(self):
        names = {c.name for c in verify_identities()}
        assert names == {
            "sp-from-sqrt-swap",
            "sp-dagger-from-sqrt-swap",
            "cz-from-sp",
            "cz-from-sp-dagger",
            "cnot-from-sp",
            "hadamard-ry-z",
            "hadamard-z-ry",
            "sqrt-swap-squared",
            "sp-squared",
        }

    def test_cz_checks_are_exact_no_free_phase(self):
        # the corruption negates the phase gate, a global -1 on each product it enters
        by_name = {c.name: c for c in verify_identities(corrupt=True)}
        assert not by_name["cz-from-sp"].passed
        assert not by_name["cz-from-sp-dagger"].passed
        assert by_name["cnot-from-sp"].passed

    def test_corruption_hook_fails(self):
        checks = verify_identities(corrupt=True)
        by_name = {c.name: c for c in checks}
        assert not by_name["sp-from-sqrt-swap"].passed
        assert not by_name["cz-from-sp"].passed

    def test_diagonal_factors_commute_in_cz_construction(self):
        # the three factors of the CZ construction are diagonal, so every
        # ordering gives the same product
        factors = [
            np.kron(gate("rz", np.pi / 2), np.eye(2)),
            np.kron(np.eye(2), gate("rz", -np.pi / 2)),
            np.asarray(gate("sp")),
        ]
        products = []
        for perm in itertools.permutations(factors):
            product = np.eye(4, dtype=complex)
            for f in perm:
                product = f @ product
            products.append(product)
        for product in products[1:]:
            assert np.max(np.abs(product - products[0])) < 1e-12
        assert np.max(np.abs(products[0] - gate("cz"))) < 1e-12


class TestEntanglement:
    def test_sp_entangles_plus_plus(self):
        plus_plus = np.ones(4, dtype=complex) / 2.0
        state = np.asarray(gate("sp")) @ plus_plus
        assert concurrence(state) == pytest.approx(1.0, abs=1e-10)

    def test_product_state_has_zero_concurrence(self):
        plus_plus = np.ones(4, dtype=complex) / 2.0
        assert concurrence(plus_plus) == pytest.approx(0.0, abs=1e-12)

    def test_swap_does_not_entangle_product_basis(self):
        state = np.asarray(gate("swap")) @ np.array([0, 1, 0, 0], dtype=complex)
        assert concurrence(state) == pytest.approx(0.0, abs=1e-12)


class TestPlaquettes:
    @pytest.mark.parametrize("kind", ["X", "Z"])
    def test_equivalent_to_reference(self, kind):
        assert verify_plaquette(kind)

    @pytest.mark.parametrize("kind", ["X", "Z"])
    def test_corrupted_circuit_fails(self, kind):
        assert not verify_plaquette(kind, corrupt=True)

    @pytest.mark.parametrize("kind", ["X", "Z"])
    def test_depth_at_most_nine(self, kind):
        assert len(build_plaquette(kind).steps) <= 9

    def test_x_gate_census(self):
        circuit = build_plaquette("X")
        names = [g.name for g in itertools.chain.from_iterable(circuit.steps)]
        assert names.count("sp") == 4
        initial_ry = [g for g in circuit.steps[0] if g.name == "ry"]
        assert len(initial_ry) == 5
        assert all(g.params == (-np.pi / 2,) for g in initial_ry)
        initial_rz = [g for g in circuit.steps[1] if g.name == "rz"]
        assert len(initial_rz) == 4
        final_ry = [g for g in circuit.steps[-1] if g.name == "ry"]
        assert len(final_ry) == 5
        assert all(g.params == (np.pi / 2,) for g in final_ry)

    def test_z_data_gets_only_one_rz_and_no_ry(self):
        circuit = build_plaquette("Z")
        data = (2, 3, 4, 5)
        for qubit in data:
            ops = [g for g in itertools.chain.from_iterable(circuit.steps) if qubit in g.targets]
            solo = [g for g in ops if g.name in ("ry", "rz")]
            assert len(solo) == 1
            assert solo[0].name == "rz"
            assert solo[0].params == (-np.pi / 2,)

    def test_sp_time_order_is_data_2_to_5(self):
        for kind in ("X", "Z"):
            circuit = build_plaquette(kind)
            pairs = [g.targets for g in itertools.chain.from_iterable(circuit.steps) if g.name == "sp"]
            assert pairs == [(1, 2), (1, 3), (1, 4), (1, 5)]

    def test_data_rz_placement_is_free(self):
        # the z-dressing commutes with the diagonal interactions, so it can
        # move from the onset to any later slot between them
        base = build_plaquette("Z")
        reference = reference_plaquette("Z")
        onset, *sp_steps, final = base.steps
        ry_anc = tuple(g for g in onset if g.name == "ry")
        rz_data = tuple(g for g in onset if g.name == "rz")
        for insert_after in range(len(sp_steps) + 1):
            steps = [ry_anc]
            steps.extend(sp_steps[:insert_after])
            steps.append(rz_data)
            steps.extend(sp_steps[insert_after:])
            steps.append(final)
            moved = Circuit(5, tuple(steps))
            assert _phase_residual(compose(moved), reference) < 1e-10

    @pytest.mark.parametrize("kind", ["X", "Z"])
    def test_composed_plaquette_is_unitary(self, kind):
        assert is_unitary(compose(build_plaquette(kind)))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            build_plaquette("Y")
        with pytest.raises(ValueError):
            reference_plaquette("Y")


class TestReferenceMemo:
    @pytest.mark.parametrize("kind", ["X", "Z"])
    def test_built_once_as_row_tuples(self, kind):
        reference = reference_plaquette(kind)
        assert reference is reference_plaquette(kind)
        assert type(reference) is tuple and all(type(row) is tuple for row in reference)

    @pytest.mark.parametrize("kind", ["X", "Z"])
    def test_entries_are_those_of_a_fresh_composition(self, kind):
        h_wall = tuple(PlacedGate("h", (q,)) for q in ((1, 2, 3, 4, 5) if kind == "X" else (1,)))
        cz_chain = tuple((PlacedGate("cz", (1, d)),) for d in (2, 3, 4, 5))
        fresh = compose(Circuit(5, (h_wall, *cz_chain, h_wall)))
        assert repr(reference_plaquette(kind)) == repr(tuple(map(tuple, fresh)))

    @pytest.mark.parametrize("kind", ["X", "Z"])
    def test_kept_reference_still_catches_a_faulty_circuit(self, kind, monkeypatch):
        reference_plaquette.cache_clear()  # the first call builds it
        assert verify_plaquette(kind)
        assert not verify_plaquette(kind, corrupt=True)
        assert verify_plaquette(kind)


def digest(matrix) -> str:
    """The first 16 hex digits of the sha256 of the matrix's repr, as row tuples."""
    return hashlib.sha256(repr(tuple(map(tuple, matrix))).encode()).hexdigest()[:16]


class TestComposedBits:
    """The six circuits ``verify`` composes give the very bits they gave when ``compose``
    also multiplied dense products: same ``_sandwich`` call, same phase products."""

    @pytest.mark.parametrize("kind, corrupt, pinned", [
        ("X", False, "c536c922a3bb9c37"),
        ("Z", False, "edca4c983e811ce1"),
        ("X", True, "e73a39bd1b815f1f"),
        ("Z", True, "7fa56fa892e69ce8"),
    ])
    def test_plaquette_circuit(self, kind, corrupt, pinned):
        assert digest(compose(build_plaquette(kind, corrupt))) == pinned

    @pytest.mark.parametrize("kind, pinned", [("X", "c2b533091d5daf3d"), ("Z", "e8b7765688acd04e")])
    def test_reference(self, kind, pinned):
        reference_plaquette.cache_clear()  # composed here, not kept from another test
        assert digest(reference_plaquette(kind)) == pinned


# Property tests against an oracle built here with numpy: a k-qubit gate acts
# on the leading qubits of np.kron(u, I), and an axis permutation moves those
# qubits to the targets.

ONE_QUBIT = ["i", "x", "y", "z", "h"]
TWO_QUBIT = ["sqrt_swap", "sp", "sp_dag", "swap", "cz", "cnot"]
ANGLES = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def oracle_expand(u, n, targets):
    k = len(targets)
    order = [t - 1 for t in targets] + [q for q in range(n) if q + 1 not in targets]
    axes = list(np.argsort(order))
    full = np.kron(np.asarray(u), np.eye(1 << (n - k))).reshape((2,) * (2 * n))
    return full.transpose(axes + [n + a for a in axes]).reshape(1 << n, 1 << n)


@st.composite
def placed_gates(draw, n, targets):
    """A fixed gate or a rotation on one of the given targets, or a two-qubit
    gate on two of them."""
    if len(targets) >= 2 and draw(st.booleans()):
        return PlacedGate(draw(st.sampled_from(TWO_QUBIT)), tuple(draw(st.permutations(targets))[:2]))
    qubit = (draw(st.sampled_from(targets)),)
    if draw(st.booleans()):
        return PlacedGate(draw(st.sampled_from(["rx", "ry", "rz"])), qubit, (draw(ANGLES),))
    return PlacedGate(draw(st.sampled_from(ONE_QUBIT)), qubit)


DIAGONAL_TWO = ["sp", "sp_dag", "cz"]
DENSE_TWO = ["sqrt_swap", "swap", "cnot"]


@st.composite
def diagonal_gates(draw, n, targets):
    """A diagonal gate on one of the targets, or on two of them."""
    if len(targets) >= 2 and draw(st.booleans()):
        return PlacedGate(draw(st.sampled_from(DIAGONAL_TWO)), tuple(draw(st.permutations(targets))[:2]))
    qubit = (draw(st.sampled_from(targets)),)
    if draw(st.booleans()):
        return PlacedGate("rz", qubit, (draw(ANGLES),))
    return PlacedGate(draw(st.sampled_from(["i", "z"])), qubit)


@st.composite
def dense_gates(draw, qubit):
    """A one-qubit gate on the qubit with an off-diagonal entry."""
    if draw(st.booleans()):
        angle = draw(ANGLES.filter(lambda theta: math.sin(theta / 2)))
        return PlacedGate(draw(st.sampled_from(["rx", "ry"])), (qubit,), (angle,))
    return PlacedGate(draw(st.sampled_from(["x", "y", "h"])), (qubit,))


def one_qubit_gates(n, free):
    """Any one-qubit gate, diagonal or not, on one of the free qubits."""
    return st.sampled_from(free).flatmap(lambda q: placed_gates(n, [q]))


@st.composite
def steps_of(draw, n, gates):
    """One step: gates from ``gates(free qubits)`` on disjoint qubits."""
    free, step = list(range(1, n + 1)), []
    for _ in range(draw(st.integers(0, n))):
        if free:
            placed = draw(gates(free))
            free = [q for q in free if q not in placed.targets]
            step.append(placed)
    return tuple(step)


@st.composite
def form_steps(draw, n):
    """The one form ``compose`` takes, each part optional: a step of one-qubit gates
    (diagonal ones included) beside two-qubit diagonals, steps of diagonal gates, and a
    step of non-diagonal one-qubit gates; any step may be empty."""
    first = draw(steps_of(n, lambda free: st.one_of(one_qubit_gates(n, free), diagonal_gates(n, free))))
    middle = [draw(steps_of(n, lambda free: diagonal_gates(n, free))) for _ in range(draw(st.integers(0, 4)))]
    last = draw(steps_of(n, lambda free: st.sampled_from(free).flatmap(dense_gates)))
    return (first, *middle, last)


@st.composite
def circuits(draw):
    n = draw(st.integers(1, 5))
    return Circuit(n, draw(form_steps(n)))


@st.composite
def out_of_form(draw):
    """A circuit ``compose`` refuses, and the step it names: a non-diagonal gate on two
    qubits in any step, or a gate after (or beside) a layer that follows another gate."""
    n = draw(st.integers(2, 5))
    steps = list(draw(form_steps(n)))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(steps)))
        pair = tuple(draw(st.permutations(range(1, n + 1)))[:2])
        steps.insert(at, (PlacedGate(draw(st.sampled_from(DENSE_TWO)), pair),))
        return Circuit(n, tuple(steps)), at + 1
    # the form's steps up to its outer layer, a diagonal gate, a layer (the outer one), a late gate
    steps.pop()
    ahead = (draw(diagonal_gates(n, list(range(1, n + 1)))),)
    outer = [draw(dense_gates(q)) for q in draw(st.lists(st.integers(1, n), min_size=1, unique=True))]
    late = draw(steps_of(n, lambda free: st.one_of(one_qubit_gates(n, free), diagonal_gates(n, free))))
    if not late:
        late = (draw(placed_gates(n, [1])),)
    if len(outer) < n and draw(st.booleans()):  # the late gates in the outer layer's own step
        spare = [q for q in range(1, n + 1) if q not in {p.targets[0] for p in outer}]
        steps += [ahead, (*outer, draw(diagonal_gates(n, spare[:1])))]
        return Circuit(n, tuple(steps)), len(steps)
    steps += [ahead, tuple(outer), *[()] * draw(st.integers(0, 2)), late]
    return Circuit(n, tuple(steps)), len(steps)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 5))
def test_expand_matches_kron_oracle(data, n):
    placed = data.draw(placed_gates(n, list(range(1, n + 1))))
    u = placed.matrix()
    assert np.max(np.abs(np.asarray(expand(u, n, placed.targets)) - oracle_expand(u, n, placed.targets))) < 1e-14


@settings(max_examples=300, deadline=None)
@given(circuit=circuits())
def test_compose_matches_kron_oracle(circuit):
    n = circuit.n_qubits
    expected = np.eye(1 << n, dtype=complex)
    for placed in itertools.chain.from_iterable(circuit.steps):
        expected = oracle_expand(placed.matrix(), n, placed.targets) @ expected
    assert np.max(np.abs(np.asarray(compose(circuit)) - expected)) < 1e-14


@settings(max_examples=300, deadline=None)
@given(case=out_of_form())
def test_compose_rejects_a_circuit_out_of_form(case):
    circuit, step = case
    with pytest.raises(ValueError) as err:
        compose(circuit)
    assert str(err.value).startswith(f"step {step}: ")


@given(theta=st.floats(allow_nan=False, allow_infinity=False))
def test_rotations_match_math(theta):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    expected = {
        "rx": [[c, -1j * s], [-1j * s, c]],
        "ry": [[c, -s], [s, c]],
        "rz": [[complex(c, -s), 0], [0, complex(c, s)]],
    }
    for name, matrix in expected.items():
        assert np.max(np.abs(np.asarray(gate(name, theta)) - np.asarray(matrix))) < 1e-15


# Plain definitions of ``_layout`` (a list search), ``_residual`` (a generator
# over row pairs) and the concurrence of a pure two-qubit state, kept as oracles.

def index_search_layout(n_qubits, targets):
    offsets = [0]
    for t in targets:
        offsets = [o | b for o in offsets for b in (0, 1 << (n_qubits - t))]
    return offsets[-1], [offsets.index(i & offsets[-1]) for i in range(1 << n_qubits)]


def generator_residual(u, v, phase=1):
    return max(abs(x - phase * y) for ru, rv in zip(u, v) for x, y in zip(ru, rv))


def concurrence(state) -> float:
    a, b, c, d = map(complex, state)
    return 2 * abs(a * d - b * c)  # 1 for a maximally entangled state


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_layout_matches_index_search(n, cold_caches):
    # every tuple of targets, repeats included (a direct call can pass one), built and then kept
    for k in range(1, n + 1):
        for targets in itertools.product(range(1, n + 1), repeat=k):
            mask, index = index_search_layout(n, targets)
            assert _layout(n, targets) == _layout(n, targets) == (mask, tuple(index))


class TestLayoutMemo:
    def test_kept_as_tuples(self, cold_caches):
        layout = _layout(5, (1, 3))
        assert type(layout) is tuple and type(layout[1]) is tuple
        assert _layout(5, (1, 3)) is layout

    def test_holds_at_most_the_valid_layouts(self, cold_caches):
        # expand checks the targets before the memo sees them, so what it can keep is
        # one layout per register of 1 to 5 qubits and ordered tuple of distinct targets
        for n in range(1, 6):
            for k in range(n + 1):
                for targets in itertools.permutations(range(1, n + 1), k):
                    expand(np.eye(1 << k), n, targets)
        assert _layout.cache_info().currsize == 414

    @pytest.mark.parametrize("n", [6, 9, 12])
    def test_large_registers_are_not_kept(self, n, cold_caches):
        # now kept like any other: an expand on n > 5 qubits builds a 2^n-square matrix, which costs more
        mask, index = index_search_layout(n, (1, n))
        assert _layout(n, (1, n)) == (mask, tuple(index))

    def test_verify_fills_it_once(self, cold_caches):
        verify_identities()
        verify_plaquette("X")
        kept = _layout.cache_info()
        assert kept.currsize
        verify_identities()
        verify_plaquette("X")
        again = _layout.cache_info()
        assert (again.currsize, again.misses) == (kept.currsize, kept.misses) and again.hits > kept.hits


COMPLEX = st.complex_numbers(allow_nan=True, allow_infinity=True)


@st.composite
def matrix_pairs(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entries = st.lists(st.lists(COMPLEX, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    return draw(entries), draw(entries)


def outcome(residual, *args) -> str:
    try:
        return repr(residual(*args))
    except OverflowError as exc:  # abs() of a complex entry beyond the float range
        return repr(exc)


@settings(max_examples=300, deadline=None)
@given(pair=matrix_pairs(), phase=st.one_of(st.just(1), COMPLEX))
@example(pair=([[0j]], [[complex(1.3e308, 1.3e308)]]), phase=1)
def test_residual_bit_identical_to_generator(pair, phase):
    u, v = pair
    assert outcome(_residual, u, v, phase) == outcome(generator_residual, u, v, phase)
    a, b = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
    with np.errstate(all="ignore"):  # numpy scalars warn where Python complex gives inf or nan quietly
        assert outcome(_residual, a, b, phase) == outcome(generator_residual, a, b, phase)
        assert outcome(_residual, a, v) == outcome(generator_residual, a, v)
