import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spiderweb.config import ElectronicsParams, TimingParams, ToolConfig
from spiderweb.electronics import demux_clock
from spiderweb.errors import InvalidConfigError
from spiderweb.model import (
    GATE_INVENTORY,
    ArrayConfig,
    GateInventory,
    RegionGates,
    derive_geometry,
    validate_config,
)
from spiderweb.report import SWEEP_FIELDS, build_report, compute, sweep_record
from spiderweb.wiring import LEVELS, lines_at

REFERENCE = ArrayConfig()


def _violations(cfg: ArrayConfig) -> tuple[str, ...]:
    """The violations ``validate_config`` raises for ``cfg``, or () when it passes."""
    try:
        validate_config(cfg)
    except InvalidConfigError as exc:
        return exc.violations
    return ()


def test_reference_config_is_valid():
    assert validate_config(REFERENCE) is None
    assert REFERENCE.validate() is None


def test_minimal_config_is_valid():
    # a plane of two unit cells on a side: one cell has no Rent exponent
    cfg = ArrayConfig(
        bias_module_edge=2, bias_grid_edge=1,
        readout_module_edge=1, readout_grid_edge=2,
        sequential_readouts=1, parallel_readouts=1,
    )
    assert _violations(cfg) == ()


@pytest.mark.parametrize("edges", [(1, 1, 1, 1), (1, 1, 1, 2)])
def test_one_cell_plane_is_rejected(edges):
    n_b, m_b, n_r, m_r = edges
    cfg = ArrayConfig(bias_module_edge=n_b, bias_grid_edge=m_b, readout_module_edge=n_r, readout_grid_edge=m_r,
                      sequential_readouts=1, parallel_readouts=1)
    violations = _violations(cfg)
    assert "a plane of one unit cell has no Rent exponent: bias_module_edge*bias_grid_edge = 1" in violations
    assert len(violations) == (1 if m_r == 1 else 2)  # a mismatched readout tiling is named too


def test_mismatched_tilings_reported():
    cfg = REFERENCE._replace(readout_grid_edge=100)
    violations = _violations(cfg)
    assert len(violations) == 1
    assert "512 != " in violations[0]
    with pytest.raises(InvalidConfigError, match="512 != "):
        cfg.validate()


def test_uncovered_readout_split_reported():
    cfg = REFERENCE._replace(sequential_readouts=3)
    assert any("multiplexing split" in v for v in _violations(cfg))


def test_nonpositive_fields_reported():
    cfg = REFERENCE._replace(code_distance=0, crossbars=-1)
    assert len(_violations(cfg)) == 2


def test_validation_raises_every_violation_at_once():
    cfg = ArrayConfig(qubit_pitch_nm=0, bias_module_edge=-3)
    with pytest.raises(InvalidConfigError) as err:
        validate_config(cfg)
    assert err.value.violations == _violations(cfg)
    assert str(err.value) == "; ".join(err.value.violations)
    assert len(err.value.violations) == 3  # two fields and the tiling they break


def test_reference_geometry():
    geo = derive_geometry(REFERENCE)
    assert geo.unit_cells == 262144
    assert geo.qubit_count == 1048576
    # (2 * 13 um * 512)^2
    assert geo.plane_area_m2 * 1e6 == pytest.approx(177.209344, rel=1e-12)
    assert geo.plane_edge_m == pytest.approx(13312e-6)
    assert geo.plane_perimeter_m == pytest.approx(4 * 13312e-6)
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
    assert geo.plane_edge_m == pytest.approx(26e-6)
    assert geo.plane_area_m2 == pytest.approx((26e-6) ** 2)


def test_geometry_rejects_invalid_config():
    # the array is checked once, at the report boundary, before any geometry
    config = ToolConfig(array=REFERENCE._replace(readout_grid_edge=100))
    with pytest.raises(InvalidConfigError, match="different plane edges"):
        build_report(config)


@st.composite
def small_arrays(draw) -> ArrayConfig:
    """Small arrays, biased so that the two tilings and the readout split often match.  Half are
    tidy: every field in range, a power-of-two readout edge and matched tilings, so all that can
    still fail is a plane of one unit cell."""
    tidy = draw(st.booleans())
    low = 1 if tidy else 0
    small = st.integers(1 if tidy else -1, 8)
    n_b, m_b = draw(small), draw(small)
    n_r = draw(st.sampled_from([k for k in (1, 2, 4, 8) if n_b * m_b % k == 0]) if tidy else small)
    tiles = n_r > 0 and (n_b * m_b) % n_r == 0
    m_r = (n_b * m_b) // n_r if tiles and (tidy or draw(st.booleans())) else draw(small)
    cells = max(n_r * n_r, 1)
    if tidy or draw(st.booleans()):
        q = draw(st.sampled_from([k for k in range(1, cells + 1) if cells % k == 0]))
        r = cells // q
    else:
        q, r = draw(small), draw(small)
    return ArrayConfig(
        qubit_pitch_nm=draw(st.integers(low, 20_000)),
        gate_pitch_nm=draw(st.integers(low, 100)),
        bias_module_edge=n_b,
        bias_grid_edge=m_b,
        readout_module_edge=n_r,
        readout_grid_edge=m_r,
        sequential_readouts=q,
        parallel_readouts=r,
        crossbars=draw(st.integers(low - 1, 5)),
        code_distance=draw(st.integers(low, 5)),
        metal_layers=draw(st.integers(low, 12)),
        interconnect_pitch_nm=draw(st.integers(low, 100)),
    )


@settings(max_examples=300, deadline=None)
@given(small_arrays())
def test_validation_decides_whether_report_builds(cfg):
    violations = _violations(cfg)
    if not violations:
        build_report(ToolConfig(array=cfg))
    else:
        with pytest.raises(InvalidConfigError) as err:
            build_report(ToolConfig(array=cfg))
        assert err.value.violations == violations


# finite floats from 0 up, which hypothesis often draws at the edges of the float range; every
# config value is finite, as parse_quantity rejects the rest
_EDGE_FLOATS = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


@st.composite
def edge_electronics(draw) -> ElectronicsParams:
    """Positive electronics values at the edges of the float range, the fine resolution not above the
    coarse one (a zero value breaks a rule that ``test_config`` checks)."""
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    fine, coarse = sorted((draw(positive), draw(positive)))
    return ElectronicsParams(coarse, fine, *(draw(positive) for _ in range(4)), draw(st.integers(1, 64)),
                             draw(positive))


@settings(max_examples=300, deadline=None)
@given(small_arrays(), edge_electronics(), st.builds(TimingParams, *[_EDGE_FLOATS] * len(TimingParams._fields)))
@example(ArrayConfig(bias_module_edge=1, bias_grid_edge=1, readout_module_edge=1, readout_grid_edge=1,
                     sequential_readouts=1, parallel_readouts=1), ElectronicsParams(), TimingParams())
def test_every_valid_config_computes(cfg, electronics, timing):
    config = ToolConfig(array=cfg, electronics=electronics, timing=timing)
    try:
        config.validate()
    except (InvalidConfigError, ValueError):
        return
    design = compute(config)
    assert design.geometry.unit_cells == cfg.unit_cells


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
        inv = GATE_INVENTORY
        by_kind = {r.region_kind: r for r in inv.rows}
        idle = by_kind["qubit_idling"]
        assert (idle.regions_per_unit_cell, idle.fine_gates, idle.coarse_gates, idle.pulsed_gates) == (4, 0, 4, 4)
        op = by_kind["qubit_operation"]
        assert (op.regions_per_unit_cell, op.fine_gates, op.coarse_gates, op.pulsed_gates) == (2, 7, 2, 6)
        two = by_kind["two_qubit_only"]
        assert (two.regions_per_unit_cell, two.fine_gates, two.coarse_gates, two.pulsed_gates) == (6, 3, 2, 5)

    def test_reference_totals(self):
        inv = GATE_INVENTORY
        assert inv.fine_total == 32
        assert inv.coarse_total == 32
        assert inv.pulsed_total == 58
        assert inv.dc_biased_total == 64

    def test_totals_are_weighted_sums(self):
        inv = GATE_INVENTORY
        assert inv.fine_total == sum(r.regions_per_unit_cell * r.fine_gates for r in inv.rows)
        assert inv.coarse_total == sum(r.regions_per_unit_cell * r.coarse_gates for r in inv.rows)
        assert inv.pulsed_total == sum(r.regions_per_unit_cell * r.pulsed_gates for r in inv.rows)

    def test_line_and_clock_counts_follow_inventory(self):
        inv = GATE_INVENTORY
        for level in LEVELS:
            assert lines_at(level, REFERENCE).pulsed_mw == inv.pulsed_total
        assert demux_clock(REFERENCE, 1.0) == inv.dc_biased_total * REFERENCE.bias_module_edge**2

    def test_alternate_inventory_is_recomputed(self):
        inv = GateInventory((RegionGates("custom", 3, 2, 1, 5),))
        assert inv.fine_total == 6
        assert inv.coarse_total == 3
        assert inv.pulsed_total == 15
