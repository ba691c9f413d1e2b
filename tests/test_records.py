"""The record contract: config sections and model results are named tuples, each
declared as ``class Name(metaclass=model.record)`` with its fields annotated in the
class body, and a config section changes through ``_replace``; no class is a dataclass."""

import dataclasses
import importlib
import pkgutil

import pytest

import spiderweb
from spiderweb import config, electronics, model, power, qgates, report, schedule
from spiderweb.config import ToolConfig

# section -> (a field, a value other than its default)
CONFIG_SECTIONS = {
    model.ArrayConfig: ("crossbars", 5),
    config.ElectronicsParams: ("temperature_k", 4.0),
    config.InterconnectGrid: ("line_width_m", 160e-9),
    config.SignalParams: ("line_length_m", 26e-6),
    config.TimingParams: ("readout_s", 2e-6),
    ToolConfig: ("array", model.ArrayConfig(crossbars=5)),
}


def _package_classes() -> set[type]:
    classes = set()
    for info in pkgutil.iter_modules(spiderweb.__path__):
        if info.name == "__main__":  # runs the CLI on import
            continue
        module = importlib.import_module(f"spiderweb.{info.name}")
        classes |= {v for v in vars(module).values()
                    if isinstance(v, type) and v.__module__ == module.__name__}
    return classes


def _records() -> list:
    """One instance of every result record, as the model stages build them."""
    design = report.compute(ToolConfig())
    table = schedule.default_step_table()
    trace = schedule.simulate_cycle(table, config.TimingParams())
    step = next(s for s in table.steps if s.kind == "two_qubit")
    placed = qgates.PlacedGate("x", (1,))
    inventory = model.GATE_INVENTORY
    return [
        design.geometry,
        inventory.rows[0],
        inventory,
        design.grid,
        power.transmission_line_power(power.SignalParams().resolved(model.ArrayConfig())),
        design.power,
        design.footprint,
        design.lines,
        design.lines.unit_cell,
        table.steps[0].gates[0],
        step.gates[0],
        step,
        table,
        trace,
        trace.events[0],
        design.cycles,
        design.cycles.mixed,
        placed,
        qgates.Circuit(1, ((placed,),)),
        qgates.verify_identities()[0],
        design,
        report.QUANTITIES[1],  # a row of the report's quantity table, not a stage result
    ]


def test_no_class_is_a_dataclass():
    classes = _package_classes()
    assert not {c for c in classes if dataclasses.is_dataclass(c)}
    field_bearing = {c for c in classes if vars(c).get("__annotations__")}
    assert set(CONFIG_SECTIONS) <= field_bearing
    assert all(issubclass(c, tuple) and hasattr(c, "_fields") for c in field_bearing)


def test_every_result_record_is_a_named_tuple():
    classes = _package_classes()
    records = {c for c in classes if issubclass(c, tuple)} - set(CONFIG_SECTIONS)
    assert {type(r) for r in _records()} == records
    assert all(hasattr(c, "_fields") for c in records)


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_are_read_only(record):
    name = record._fields[0]
    value = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    assert getattr(record, name) is value


def test_equal_inputs_give_equal_designs():
    assert report.compute(ToolConfig()) == report.compute(ToolConfig())


def test_flat_records_hash():
    table = schedule.default_step_table()
    step = next(s for s in table.steps if s.kind == "two_qubit")
    design = report.compute(ToolConfig())
    records = [
        step,
        table.steps[0].gates[0],
        step.gates[0],
        design.cycles.mixed,
        design.lines.unit_cell,
        qgates.verify_identities()[0],
    ]
    for record in records:
        assert hash(record) == hash(type(record)(*record))


@pytest.mark.parametrize("section", CONFIG_SECTIONS, ids=lambda c: c.__name__)
def test_config_sections_change_through_replace(section):
    name, value = CONFIG_SECTIONS[section]
    default = section()
    changed = default._replace(**{name: value})
    assert getattr(changed, name) == value != getattr(default, name)
    assert default == section()
    with pytest.raises(AttributeError):
        setattr(default, name, value)
    with pytest.raises(ValueError):
        default._replace(no_such_field=value)


def test_a_field_without_a_default_after_one_with_a_default_is_rejected():
    """As with ``typing.NamedTuple``: else the defaults would shift onto the fields before them."""
    with pytest.raises(TypeError, match="record Late: a field without a default follows one with a default"):
        class Late(metaclass=model.record):
            first: int = 0
            second: int


def test_a_record_keeps_its_declaration():
    class Point(metaclass=model.record):
        """A point."""

        x: "int"
        y: "int" = 2  # a default

        def total(self) -> int:
            return self.x + self.y

    assert (Point._fields, Point._field_defaults) == (("x", "y"), {"y": 2})
    assert Point.__annotations__ == {"x": "int", "y": "int"}
    assert (Point.__doc__, Point.__module__) == ("A point.", __name__)
    assert Point.__qualname__.endswith("<locals>.Point")
    assert Point(1).total() == 3 and Point(1) == (1, 2)
