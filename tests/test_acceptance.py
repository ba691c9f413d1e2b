"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.

All tolerances are pinned here; the reference configuration is the
million-qubit design that the package defaults reproduce.
"""

import random

import numpy as np
import pytest

from spiderweb.config import ElectronicsParams, InterconnectGrid, SignalParams, TimingParams
from spiderweb.electronics import (
    demux_clock,
    footprint,
    min_hold_capacitance,
    refresh_rate,
)
from spiderweb.errors import ScheduleConflictError
from spiderweb.model import ArrayConfig, cycle_time, default_gate_inventory, derive_geometry
from spiderweb.power import (
    parasitic_capacitance,
    total_power,
    transmission_line_power,
)
from spiderweb.qgates import (
    concurrence,
    gate,
    verify_identities,
    verify_plaquette,
)
from spiderweb.schedule import (
    default_step_table,
    simulate_cycle,
    step_table_from_text,
    step_table_to_text,
)
from spiderweb.wiring import lines_at, logical_qubit_capacity, max_fab_crossbars, rent_exponent

REFERENCE = ArrayConfig()
ELEC = ElectronicsParams()
GRID = InterconnectGrid()
TIMING = TimingParams()


def report(criterion: str, passed: bool) -> None:
    print(f"{'PASS' if passed else 'FAIL'}  {criterion}")
    assert passed, criterion


def test_criterion_01_line_counts_and_rent_exponent():
    cell = lines_at("unit_cell", REFERENCE).total
    plane = lines_at("quantum_plane", REFERENCE).total
    p = rent_exponent(plane, cell, REFERENCE.unit_cells)
    report(
        "criterion 1: c=74 and T=16836 exactly, Rent exponent in [0.43, 0.44]",
        cell == 74 and plane == 16836 and 0.43 <= p <= 0.44,
    )


def test_criterion_02_rent_exponent_versus_crossbars():
    grid = (0, 1, 10, 100, 200, 1000)
    configs = [REFERENCE._replace(crossbars=x) for x in grid]
    values = [rent_exponent(lines_at("quantum_plane", c).total, lines_at("unit_cell", c).total, c.unit_cells)
              for c in configs]
    non_decreasing = all(a <= b for a, b in zip(values, values[1:]))
    p_200 = values[grid.index(200)]
    report(
        "criterion 2: p(x) non-decreasing, p(200) in [0.49, 0.50], p <= 0.5 + 1e-3 on grid",
        non_decreasing and 0.49 <= p_200 <= 0.50 and all(v <= 0.5 + 1e-3 for v in values),
    )


def test_criterion_03_logical_capacities():
    defect = logical_qubit_capacity(REFERENCE, "defect")
    surgery = logical_qubit_capacity(REFERENCE, "lattice_surgery")
    fab = max_fab_crossbars(REFERENCE)
    report(
        "criterion 3: capacities 682 (defect), 1024 (lattice surgery), 1950 (fabrication)",
        defect == 682 and surgery == 1024 and fab == 1950,
    )


def test_criterion_04_electronics_constraints():
    coarse = min_hold_capacitance("coarse", ELEC)
    fine = min_hold_capacitance("fine", ELEC)
    fast = refresh_rate(ELEC, ELEC.fine_resolution_v)
    slow = refresh_rate(ELEC._replace(drift_v_per_s=2e-6), ELEC.fine_resolution_v)
    clock = demux_clock(REFERENCE, fast)
    report(
        "criterion 4: C_coarse 0.160 fF +-1%, C_fine 13.8 pF +-1%, refresh 2 Hz..100 kHz, "
        "demux clock exactly 64*1024*refresh (6.55 GHz)",
        abs(coarse - 0.160e-15) <= 0.01 * 0.160e-15
        and abs(fine - 13.8e-12) <= 0.01 * 13.8e-12
        and slow == pytest.approx(2.0, rel=1e-12)
        and fast == pytest.approx(100e3, rel=1e-12)
        and clock == 64 * REFERENCE.bias_module_edge**2 * fast
        and clock == pytest.approx(6.5536e9, rel=1e-12),
    )


def test_criterion_05_footprint_and_plane_area():
    fine, coarse = min_hold_capacitance("fine", ELEC), min_hold_capacitance("coarse", ELEC)
    fp = footprint(REFERENCE, ELEC, default_gate_inventory(), fine, coarse)
    area = derive_geometry(REFERENCE).plane_area_mm2
    report(
        "criterion 5: A_cap in [440, 460] um^2, A_demux = 180 um^2, A_total in [620, 640] um^2, "
        "min pitch in [12.4, 13.0] um, plane area 177.2 mm^2 +-0.5%",
        440.0 <= fp.capacitor_area_um2 <= 460.0
        and fp.demux_area_um2 == pytest.approx(180.0, rel=1e-12)
        and 620.0 <= fp.total_area_um2 <= 640.0
        and 12.4 <= fp.min_pitch_um <= 13.0
        and abs(area - 177.2) <= 0.005 * 177.2,
    )


def test_criterion_06_cycle_timing():
    mixed = cycle_time(TIMING, REFERENCE, "mixed").total_s
    parallel = cycle_time(TIMING, REFERENCE, "parallel").total_s
    table = default_step_table()
    trace = simulate_cycle(table, TIMING)
    census = table.census()
    report(
        "criterion 6: mixed-readout cycle 5.65 us, simulated makespan equals the "
        "parallel formula exactly, census 22/14/8 over 16 steps",
        mixed == pytest.approx(5.65e-6, rel=1e-12)
        and trace.makespan_s == parallel
        and census["shuttle_round_trips"] == 22
        and census["one_qubit_gates"] == 14
        and census["exchanges"] == 8
        and census["steps"] == 16,
    )


def test_criterion_07_power_budget_with_pinned_parasitic():
    grid, refresh = parasitic_capacitance(GRID), refresh_rate(ELEC, ELEC.fine_resolution_v)
    pw = total_power(REFERENCE, SignalParams(), ELEC, grid, refresh, pinned_parasitic_f=700e-15)
    additive = pw.total_w == pw.unit_cells * (pw.pulsed_w + pw.demux_w + pw.line_w)
    report(
        "criterion 7: array power 91.8 mW (pulsed) +-0.5%, 36.7 mW (demux) +-0.5%, "
        "line loss in [0.28, 0.37] mW, additivity exact",
        abs(pw.array_pulsed_w - 91.8e-3) <= 0.005 * 91.8e-3
        and abs(pw.array_demux_w - 36.7e-3) <= 0.005 * 36.7e-3
        and 0.28e-3 <= pw.array_line_w <= 0.37e-3
        and additive,
    )


def test_criterion_08_transmission_line_constant():
    constants = [
        transmission_line_power(SignalParams(line_length_m=um * 1e-6)).constant_nw_ns2_per_v2
        for um in (24, 25, 26)
    ]
    report(
        "criterion 8: first-principles line-loss constant in [0.7, 1.7] nW ns^2/V^2 "
        "for 24-26 um segments",
        all(0.7 <= k <= 1.7 for k in constants),
    )


def test_criterion_09_parasitic_capacitance_model():
    total = parasitic_capacitance(GRID).total_f
    in_band = 230e-15 <= total <= 1.4e-12

    def totals(field, values):
        return [parasitic_capacitance(GRID._replace(**{field: v})).total_f for v in values]

    rising = all(
        totals(field, values) == sorted(totals(field, values))
        for field, values in [
            ("lines_per_layer", (50, 150, 450)),
            ("line_width_m", (40e-9, 80e-9, 160e-9)),
            ("line_thickness_m", (25e-9, 50e-9, 100e-9)),
        ]
    )
    falling = all(
        totals(field, values) == sorted(totals(field, values), reverse=True)
        for field, values in [
            ("line_gap_m", (40e-9, 80e-9, 160e-9)),
            ("dielectric_thickness_m", (250e-9, 500e-9, 1000e-9)),
        ]
    )
    report(
        "criterion 9: grid parasitic capacitance in [230 fF, 1.4 pF] and monotone "
        "(rising in line count/width/thickness, falling in gap/dielectric)",
        in_band and rising and falling,
    )


def test_criterion_10_gate_algebra():
    checks = verify_identities()
    identities_ok = all(c.passed for c in checks)
    sq = np.asarray(gate("sqrt_swap"))
    swap_ok = float(np.max(np.abs(sq @ sq - gate("swap")))) < 1e-12
    plus_plus = np.ones(4, dtype=complex) / 2.0
    entangled = abs(concurrence(np.asarray(gate("sp")) @ plus_plus) - 1.0) <= 1e-10
    plaquettes_ok = verify_plaquette("X") and verify_plaquette("Z")
    negatives_fail = not verify_plaquette("X", corrupt=True) and not verify_plaquette("Z", corrupt=True)
    corrupt_identities = verify_identities(corrupt="sp-sign")
    corrupt_fails = not all(c.passed for c in corrupt_identities)
    report(
        "criterion 10: all gate identities at 1e-12, sqrt(SWAP)^2 = SWAP, phase gate "
        "entangles |++> (concurrence 1 +- 1e-10), plaquettes match references at 1e-10, "
        "negative controls fail",
        identities_ok and swap_ok and entangled and plaquettes_ok and negatives_fail and corrupt_fails,
    )


def test_criterion_11_schedule_simulation():
    table = default_step_table()
    trace = simulate_cycle(table, TIMING)

    outs: dict[str, int] = {}
    backs: dict[str, int] = {}
    for event in trace.events:
        if event.op == "shuttle_out":
            outs[event.qubit] = outs.get(event.qubit, 0) + 1
        elif event.op == "shuttle_back":
            backs[event.qubit] = backs.get(event.qubit, 0) + 1
    conserved = outs == backs and outs

    corrupted = step_table_from_text(
        step_table_to_text(table).replace("D2@op2:ry(-90)", "D2@op1:ry(-90)", 1)
    )
    try:
        simulate_cycle(corrupted, TIMING)
        located = False
    except ScheduleConflictError as exc:
        located = exc.step == 1 and exc.resource == "op1"

    rng = random.Random(20260808)
    monotone = True
    for _ in range(100):
        t = TimingParams(
            shuttle_s=rng.uniform(0, 200e-9),
            single_qubit_s=rng.uniform(0, 100e-9),
            exchange_s=rng.uniform(0, 100e-9),
            readout_s=rng.uniform(0, 5e-6),
            dephasing_s=rng.uniform(1e-6, 100e-6),
        )
        times = [cycle_time(t, REFERENCE, mode).total_s for mode in ("parallel", "mixed", "sequential")]
        monotone = monotone and times[0] <= times[1] <= times[2]

    report(
        "criterion 11: default table conflict-free with electron conservation, corrupted "
        "table rejected with located diagnostic, readout-mode monotonicity over 100 "
        "random timing draws",
        bool(conserved) and located and monotone,
    )
