import pytest

from spiderweb import electronics, model, power, report, wiring
from spiderweb.config import ToolConfig, apply_entries, parse_config_text, read_entries
from spiderweb.electronics import demux_clock, footprint, min_hold_capacitance, refresh_rate
from spiderweb.model import default_gate_inventory, derive_geometry
from spiderweb.power import SignalParams, parasitic_capacitance, total_power
from spiderweb.report import Design, compute
from spiderweb.schedule import READOUT_MODES, cycle_time
from spiderweb.wiring import (
    LEVELS,
    lines_at,
    logical_qubit_capacity,
    max_fab_crossbars,
    rent_exponent,
)

# The modules whose bindings one ``compute`` call goes through.
_OWNERS = (model, electronics, wiring, power, report)


def _count_calls(monkeypatch, owner, name) -> list:
    """Wrap ``owner.name`` wherever the spiderweb modules bind it; the returned
    list grows by one per call."""
    original = getattr(owner, name)
    calls: list = []

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    for space in (*_OWNERS, owner):
        if getattr(space, name, None) is original:
            monkeypatch.setattr(space, name, counted)
    return calls


def test_compute_runs_each_stage_once(monkeypatch):
    counts = {
        "derive_geometry": _count_calls(monkeypatch, model, "derive_geometry"),
        "lines_at": _count_calls(monkeypatch, wiring, "lines_at"),
        "parasitic_capacitance": _count_calls(monkeypatch, power, "parasitic_capacitance"),
        "refresh_rate": _count_calls(monkeypatch, electronics, "refresh_rate"),
        "SignalParams.resolved": _count_calls(monkeypatch, SignalParams, "resolved"),
    }
    compute(ToolConfig())
    assert {name: len(calls) for name, calls in counts.items()} == {
        "derive_geometry": 1,
        "lines_at": len(LEVELS),
        "parasitic_capacitance": 1,
        "refresh_rate": 1,
        "SignalParams.resolved": 1,
    }


_SMALL_FILE = """\
[array]
n_b = 16
m_b = 8
n_r = 8
m_r = 16
q = 8
r = 8
[timing]
t_r = 2us
[signals]
f_p = 2MHz
[interconnect]
n_l = 200
"""

_LARGE_FILE = """\
[array]
d = 10um
n_b = 64
m_b = 32
n_r = 16
m_r = 128
q = 64
r = 4
d_c = 25
[electronics]
drift = 50mV/s
[interconnect]
fringe_mode = disabled
"""

# (file text, overrides, pinned parasitic capacitance): the reference design
# and five others that move every config section and the pinned path.
_CONFIGS = {
    "reference": ("", (), None),
    "crossbars": ("", ("x=200",), None),
    "pitch": ("", ("d=20um", "drift=0.2V/s", "t_r=2us"), None),
    "pinned": ("", ("x=8",), 700e-15),
    "small_file": (_SMALL_FILE, (), None),
    "large_file": (_LARGE_FILE, ("x=50",), None),
}


def _rebuilt(config: ToolConfig, pinned: float | None) -> Design:
    """A Design assembled from the public stage functions, each left to
    compute its own inputs."""
    cfg, elec = config.array, config.electronics
    return Design(
        geometry=derive_geometry(cfg),
        lines={level: lines_at(level, cfg) for level in LEVELS},
        rent_exponent=rent_exponent(cfg),
        capacity_defect=logical_qubit_capacity(cfg, "defect"),
        capacity_lattice_surgery=logical_qubit_capacity(cfg, "lattice_surgery"),
        fabrication_crossbar_limit=max_fab_crossbars(cfg),
        coarse_hold_capacitance_f=min_hold_capacitance("coarse", elec),
        fine_hold_capacitance_f=min_hold_capacitance("fine", elec),
        refresh_rate_hz=refresh_rate(elec, elec.fine_resolution_v),
        demux_clock_hz=demux_clock(cfg, refresh_rate(elec, elec.fine_resolution_v)),
        footprint=footprint(cfg, elec, default_gate_inventory()),
        cycles={mode: cycle_time(config.timing, cfg, mode) for mode in READOUT_MODES},
        grid=parasitic_capacitance(config.interconnect),
        power=total_power(cfg, config.interconnect, config.signals, elec, pinned_parasitic_f=pinned),
    )


@pytest.mark.parametrize("name", list(_CONFIGS))
def test_compute_equals_public_stages(name):
    text, overrides, pinned = _CONFIGS[name]
    config = apply_entries({**parse_config_text(text), **read_entries(None, list(overrides))})
    assert compute(config, pinned) == _rebuilt(config, pinned)
