import math

import pytest

from spiderweb.config import ToolConfig
from spiderweb.errors import InvalidConfigError
from spiderweb.model import ArrayConfig, derive_geometry, validate_config
from spiderweb.report import build_report
from spiderweb.wiring import (
    lines_at,
    logical_qubit_capacity,
    max_fab_crossbars,
    rent_exponent,
)

REFERENCE = ArrayConfig()


def _rent(cfg: ArrayConfig) -> float:
    """Rent's exponent of ``cfg`` from its plane and unit-cell line totals."""
    return rent_exponent(lines_at("quantum_plane", cfg).total, lines_at("unit_cell", cfg).total, cfg.unit_cells)


def closed_form_totals(cfg: ArrayConfig) -> tuple[int, int, int]:
    """Independent oracle: the algebraically collapsed total expressions."""
    n_b, m_b, m_r = cfg.bias_module_edge, cfg.bias_grid_edge, cfg.readout_grid_edge
    x = cfg.crossbars
    log2_nr = int(math.log2(cfg.readout_module_edge))
    log2_r = int(math.log2(cfg.parallel_readouts))
    unit = 74 + 4 * x
    module = 4 * n_b * (1 + x) + 2 * log2_nr - log2_r + 68
    plane = m_b**2 + m_r**2 + 4 * n_b * (1 + m_b * x) + 2 * log2_nr - log2_r + 66
    return unit, module, plane


def make_config(n_b, m_b, n_r, x=0) -> ArrayConfig:
    m_r = n_b * m_b // n_r
    assert n_r * m_r == n_b * m_b
    return ArrayConfig(
        bias_module_edge=n_b, bias_grid_edge=m_b,
        readout_module_edge=n_r, readout_grid_edge=m_r,
        sequential_readouts=n_r, parallel_readouts=n_r,
        crossbars=x,
    )


class TestLineCounts:
    def test_reference_unit_cell(self):
        c = lines_at("unit_cell", REFERENCE)
        assert (c.dc_biasing, c.shuttling, c.pulsed_mw, c.logical_ops, c.readout) == (9, 4, 58, 0, 3)
        assert c.total == 74

    def test_unit_cell_total_is_74_for_any_config(self):
        assert lines_at("unit_cell", make_config(4, 4, 2)).total == 74
        assert lines_at("unit_cell", make_config(8, 2, 4)).total == 74

    def test_reference_module(self):
        c = lines_at("module", REFERENCE)
        assert c.dc_biasing == 4 * 32 + 5 == 133
        assert c.readout == 2 * 2 - 2 + 1 == 3
        assert c.total == 198

    def test_reference_quantum_plane(self):
        c = lines_at("quantum_plane", REFERENCE)
        assert c.dc_biasing == 16**2 + 4 * 32 + 4
        assert c.readout == 128**2 + 2 * 2 - 2
        assert c.total == 16836

    def test_crossbar_category(self):
        cfg = REFERENCE._replace(crossbars=7)
        assert lines_at("unit_cell", cfg).logical_ops == 28
        assert lines_at("module", cfg).logical_ops == 4 * 32 * 7
        assert lines_at("quantum_plane", cfg).logical_ops == 4 * 32 * 16 * 7

    @pytest.mark.parametrize("n_b,m_b,n_r,x", [
        (32, 16, 4, 0), (32, 16, 4, 200), (8, 4, 2, 3), (16, 2, 8, 1), (4, 4, 4, 0),
    ])
    def test_categories_reconcile_with_closed_form(self, n_b, m_b, n_r, x):
        cfg = make_config(n_b, m_b, n_r, x)
        unit, module, plane = closed_form_totals(cfg)
        assert lines_at("unit_cell", cfg).total == unit
        assert lines_at("module", cfg).total == module
        assert lines_at("quantum_plane", cfg).total == plane

    def test_non_power_of_two_rejected(self):
        cfg = ArrayConfig(
            bias_module_edge=3, bias_grid_edge=2,
            readout_module_edge=3, readout_grid_edge=2,
            sequential_readouts=3, parallel_readouts=3,
        )
        with pytest.raises(InvalidConfigError) as err:
            validate_config(cfg)
        assert err.value.violations == (
            "readout_module_edge must be a power of two so readout address-line "
            "counts are integral (got 3)",
        )
        with pytest.raises(InvalidConfigError, match="power of two"):
            build_report(ToolConfig(array=cfg))

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="unknown level"):
            lines_at("die", REFERENCE)

    def test_invalid_config_rejected(self):
        cfg = REFERENCE._replace(readout_grid_edge=5)
        with pytest.raises(InvalidConfigError):
            validate_config(cfg)
        with pytest.raises(InvalidConfigError):
            build_report(ToolConfig(array=cfg))

    def test_total_monotone_in_crossbars(self):
        totals = [
            lines_at("quantum_plane", REFERENCE._replace(crossbars=x)).total
            for x in (0, 1, 5, 50, 500, 5000)
        ]
        assert totals == sorted(totals)

    def test_total_monotone_in_plane_size(self):
        # grow the module grid; the readout grid scales along to stay consistent
        totals = [
            lines_at("quantum_plane", make_config(32, m_b, 4)).total
            for m_b in (1, 2, 4, 8, 16, 32)
        ]
        assert totals == sorted(totals)
        assert len(set(totals)) == len(totals)

    @pytest.mark.parametrize("n_b", [1, 2, 4, 8, 32])
    @pytest.mark.parametrize("m_b", [4, 8, 16])
    def test_hierarchy_with_reference_readout_split(self, n_b, m_b):
        cfg = make_config(n_b, m_b, 4)
        unit = lines_at("unit_cell", cfg).total
        module = lines_at("module", cfg).total
        plane = lines_at("quantum_plane", cfg).total
        assert unit <= module <= plane

    def test_to_dict_carries_total(self):
        d = lines_at("module", REFERENCE).to_dict()
        assert d["total"] == 198
        assert d["level"] == "module"


class TestRentExponent:
    def test_reference_value(self):
        p = _rent(REFERENCE)
        assert p == pytest.approx(math.log(16836 / 74) / math.log(2**18), rel=1e-12)
        assert 0.43 <= p <= 0.44

    def test_with_200_crossbars(self):
        cfg = REFERENCE._replace(crossbars=200)
        # closed-form oracle: T = 256 + 16384 + 128*(1 + 16*200) + 4 - 2 + 66
        assert lines_at("quantum_plane", cfg).total == 426436
        assert lines_at("unit_cell", cfg).total == 874
        p = _rent(cfg)
        assert p == pytest.approx(math.log(426436 / 874) / math.log(2**18), rel=1e-12)
        assert 0.49 <= p <= 0.50

    def test_equal_counts_give_zero(self):
        assert rent_exponent(74, 74, 2**18) == 0.0

    def test_single_cell_undefined(self):
        # log(1 cell) = 0, so validation rejects the plane before any line is counted
        cfg = ArrayConfig(bias_module_edge=1, bias_grid_edge=1, readout_module_edge=1, readout_grid_edge=1,
                          sequential_readouts=1, parallel_readouts=1)
        with pytest.raises(InvalidConfigError, match="one unit cell has no Rent exponent"):
            build_report(ToolConfig(array=cfg))

    def test_grid_shape_saturates_below_half(self):
        values = [
            _rent(REFERENCE._replace(crossbars=x))
            for x in (0, 1, 10, 100, 200, 1000, 2000, 5000, 10_000)
        ]
        assert values == sorted(values)
        assert all(v <= 0.5 + 1e-3 for v in values)

    def test_asymptote_is_one_half(self):
        p = _rent(REFERENCE._replace(crossbars=10**9))
        assert p == pytest.approx(0.5, abs=1e-3)


class TestCapacities:
    def test_reference_defect(self):
        assert logical_qubit_capacity(REFERENCE, "defect") == 682

    def test_reference_lattice_surgery(self):
        assert logical_qubit_capacity(REFERENCE, "lattice_surgery") == 1024

    def test_single_logical_qubit_fills_array(self):
        cfg = make_config(4, 4, 4)._replace(code_distance=16)
        assert derive_geometry(cfg).unit_cells == cfg.code_distance**2
        assert logical_qubit_capacity(cfg, "lattice_surgery") == 1

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            logical_qubit_capacity(REFERENCE, "braiding")


class TestFabCrossbars:
    def test_reference_limit(self):
        assert max_fab_crossbars(REFERENCE) == 1950

    def test_single_layer_single_line(self):
        cfg = REFERENCE._replace(qubit_pitch_nm=80, metal_layers=1, interconnect_pitch_nm=80)
        assert max_fab_crossbars(cfg) == 1

    def test_halved_density_halves_count(self):
        cfg = REFERENCE._replace(interconnect_pitch_nm=160)
        assert max_fab_crossbars(cfg) == 975
