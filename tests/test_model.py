import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spiderweb.config import ToolConfig
from spiderweb.electronics import demux_clock
from spiderweb.errors import InvalidConfigError
from spiderweb.model import (
    ArrayConfig,
    GateInventory,
    RegionGates,
    default_gate_inventory,
    derive_geometry,
    validate_config,
)
from spiderweb.report import SWEEP_FIELDS, build_report, sweep_record
from spiderweb.wiring import LEVELS, lines_at

REFERENCE = ArrayConfig()


def test_reference_config_is_valid():
    report = validate_config(REFERENCE)
    assert report.ok
    assert report.violations == ()


def test_minimal_config_is_valid():
    cfg = ArrayConfig(
        bias_module_edge=1, bias_grid_edge=1,
        readout_module_edge=1, readout_grid_edge=1,
        sequential_readouts=1, parallel_readouts=1,
    )
    assert validate_config(cfg).ok


def test_mismatched_tilings_reported():
    cfg = REFERENCE._replace(readout_grid_edge=100)
    report = validate_config(cfg)
    assert not report.ok
    assert len(report.violations) == 1
    assert "512 != " in report.violations[0]
    with pytest.raises(InvalidConfigError):
        report.raise_if_invalid()


def test_uncovered_readout_split_reported():
    cfg = REFERENCE._replace(sequential_readouts=3)
    report = validate_config(cfg)
    assert any("multiplexing split" in v for v in report.violations)


def test_nonpositive_fields_reported():
    cfg = REFERENCE._replace(code_distance=0, crossbars=-1)
    report = validate_config(cfg)
    assert len(report.violations) == 2


def test_validation_never_raises_on_bad_config():
    cfg = ArrayConfig(qubit_pitch_nm=0, bias_module_edge=-3)
    assert not validate_config(cfg).ok


def test_reference_geometry():
    geo = derive_geometry(REFERENCE)
    assert geo.unit_cells == 262144
    assert geo.qubit_count == 1048576
    # (2 * 13 um * 512)^2
    assert geo.plane_area_mm2 == pytest.approx(177.209344, rel=1e-12)
    assert geo.plane_edge_um == pytest.approx(13312.0)
    assert geo.plane_perimeter_um == pytest.approx(4 * 13312.0)
    assert geo.gates_per_arm == 260


def test_single_cell_geometry():
    cfg = ArrayConfig(
        bias_module_edge=1, bias_grid_edge=1,
        readout_module_edge=1, readout_grid_edge=1,
        sequential_readouts=1, parallel_readouts=1,
    )
    geo = derive_geometry(cfg)
    assert geo.unit_cells == 1
    assert geo.qubit_count == 4
    assert geo.plane_edge_um == pytest.approx(26.0)
    assert geo.plane_area_m2 == pytest.approx((26e-6) ** 2)


def test_geometry_rejects_invalid_config():
    # the array is checked once, at the report boundary, before any geometry
    config = ToolConfig(array=REFERENCE._replace(readout_grid_edge=100))
    with pytest.raises(InvalidConfigError, match="different plane edges"):
        build_report(config)


@st.composite
def small_arrays(draw) -> ArrayConfig:
    """Small arrays, biased so that the two tilings and the readout split often match."""
    small = st.integers(-1, 8)
    n_b, m_b, n_r = draw(small), draw(small), draw(small)
    tiles = n_r > 0 and (n_b * m_b) % n_r == 0
    m_r = (n_b * m_b) // n_r if tiles and draw(st.booleans()) else draw(small)
    cells = max(n_r * n_r, 1)
    if draw(st.booleans()):
        q = draw(st.sampled_from([k for k in range(1, cells + 1) if cells % k == 0]))
        r = cells // q
    else:
        q, r = draw(small), draw(small)
    return ArrayConfig(
        qubit_pitch_nm=draw(st.integers(0, 20_000)),
        gate_pitch_nm=draw(st.integers(0, 100)),
        bias_module_edge=n_b,
        bias_grid_edge=m_b,
        readout_module_edge=n_r,
        readout_grid_edge=m_r,
        sequential_readouts=q,
        parallel_readouts=r,
        crossbars=draw(st.integers(-1, 5)),
        code_distance=draw(st.integers(0, 5)),
        metal_layers=draw(st.integers(0, 12)),
        interconnect_pitch_nm=draw(st.integers(0, 100)),
    )


@settings(max_examples=300, deadline=None)
@given(small_arrays())
def test_validation_decides_whether_report_builds(cfg):
    report = validate_config(cfg)
    if report.ok:
        try:
            build_report(ToolConfig(array=cfg))
        except ValueError as exc:
            # a 1-cell plane has no Rent exponent; that is not an array violation
            assert "single unit cell" in str(exc)
    else:
        with pytest.raises(InvalidConfigError) as err:
            build_report(ToolConfig(array=cfg))
        assert err.value.violations == report.violations


@settings(max_examples=300, deadline=None)
@given(small_arrays())
def test_sweep_record_matches_report(cfg):
    config = ToolConfig(array=cfg)
    try:
        doc = build_report(config)
    except InvalidConfigError as exc:
        record = sweep_record("x", "0", config)
        assert record["valid"] is False
        assert record["violations"] == str(exc)
        return
    except ValueError as exc:
        # a 1-cell plane has no Rent exponent, on either path
        with pytest.raises(ValueError) as err:
            sweep_record("x", "0", config)
        assert str(err.value) == str(exc)
        return
    record = sweep_record("x", "0", config)
    expected = {
        "unit_cells": doc["geometry"]["unit_cells"],
        "lines_unit_cell": doc["lines"]["unit_cell"]["total"],
        "lines_quantum_plane": doc["lines"]["quantum_plane"]["total"],
        "rent_exponent": doc["rent_exponent"],
        "capacity_defect": doc["capacity"]["defect"],
        "capacity_lattice_surgery": doc["capacity"]["lattice_surgery"],
        "crossbar_fab_limit": doc["capacity"]["fabrication_crossbar_limit"],
        "min_pitch_um": doc["footprint"]["min_pitch_m"] * 1e6,
        "pitch_feasible": doc["footprint"]["pitch_feasible"],
        "cycle_mixed_s": doc["timing"]["mixed"]["cycle_s"],
        "array_total_w": doc["power"]["array"]["total_w"],
    }
    assert set(expected) == set(SWEEP_FIELDS) - {"parameter", "value", "valid", "violations"}
    assert (record["valid"], record["violations"]) == (True, "")
    assert {key: record[key] for key in expected} == expected


@pytest.mark.parametrize("edges", [(1, 1), (4, 4), (32, 16), (7, 3)])
def test_unit_cell_count_is_square_of_edges(edges):
    n_b, m_b = edges
    cfg = ArrayConfig(
        bias_module_edge=n_b, bias_grid_edge=m_b,
        readout_module_edge=1, readout_grid_edge=n_b * m_b,
        sequential_readouts=1, parallel_readouts=1,
    )
    assert derive_geometry(cfg).unit_cells == (n_b * m_b) ** 2


def test_area_scales_quadratically_in_pitch():
    base = derive_geometry(REFERENCE).plane_area_m2
    doubled = derive_geometry(REFERENCE._replace(qubit_pitch_nm=26_000)).plane_area_m2
    assert doubled == pytest.approx(4 * base, rel=1e-12)


def test_gates_per_arm_floor_division():
    cfg = REFERENCE._replace(gate_pitch_nm=51)
    assert derive_geometry(cfg).gates_per_arm == 13_000 // 51


class TestGateInventory:
    def test_reference_rows(self):
        inv = default_gate_inventory()
        by_kind = {r.region_kind: r for r in inv.rows}
        idle = by_kind["qubit_idling"]
        assert (idle.regions_per_unit_cell, idle.fine_gates, idle.coarse_gates, idle.pulsed_gates) == (4, 0, 4, 4)
        op = by_kind["qubit_operation"]
        assert (op.regions_per_unit_cell, op.fine_gates, op.coarse_gates, op.pulsed_gates) == (2, 7, 2, 6)
        two = by_kind["two_qubit_only"]
        assert (two.regions_per_unit_cell, two.fine_gates, two.coarse_gates, two.pulsed_gates) == (6, 3, 2, 5)

    def test_reference_totals(self):
        inv = default_gate_inventory()
        assert inv.fine_total == 32
        assert inv.coarse_total == 32
        assert inv.pulsed_total == 58
        assert inv.dc_biased_total == 64

    def test_totals_are_weighted_sums(self):
        inv = default_gate_inventory()
        assert inv.fine_total == sum(r.regions_per_unit_cell * r.fine_gates for r in inv.rows)
        assert inv.coarse_total == sum(r.regions_per_unit_cell * r.coarse_gates for r in inv.rows)
        assert inv.pulsed_total == sum(r.regions_per_unit_cell * r.pulsed_gates for r in inv.rows)

    def test_line_and_clock_counts_follow_inventory(self):
        inv = default_gate_inventory()
        for level in LEVELS:
            assert lines_at(level, REFERENCE).pulsed_mw == inv.pulsed_total
        assert demux_clock(REFERENCE, 1.0) == inv.dc_biased_total * REFERENCE.bias_module_edge**2

    def test_alternate_inventory_is_recomputed(self):
        inv = GateInventory((RegionGates("custom", 3, 2, 1, 5),))
        assert inv.fine_total == 6
        assert inv.coarse_total == 3
        assert inv.pulsed_total == 15
