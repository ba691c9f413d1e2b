"""Command-line front end.

Commands: ``report`` (full design report), ``sweep`` (one parameter over a
value list), ``verify`` (gate-algebra and schedule verification),
``simulate`` (cycle simulation with event-trace export), and ``dump-unitary``
(one gate matrix as JSON).

Exit codes: 0 success, 1 config or usage error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import io
import json
import math
import os
import sys
from itertools import chain

from .config import KNOWN_KEYS, ToolConfig, apply_entries, load_config, read_entries, resolve_override
from .errors import ScheduleConflictError, SpiderwebError
from .model import CYCLE_EXCHANGES, CYCLE_ONE_QUBIT_GATES, CYCLE_SHUTTLES, CYCLE_STEPS, cycle_time, validate_config
from .units import parse_quantity, si_format

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY = 2


def _registered(name: str):
    """``spiderweb.<name>`` in ``sys.modules`` now, its source compiled and run only on its
    first attribute access; a module already imported is returned as it is."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[fullname] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


# registered now, as the benchmark's tracer looks every traced module up in sys.modules, but run only where
# used: qgates by verify, dump-unitary; schedule by verify, simulate; report and its stages by report, sweep
qgates, report, schedule, *_ = map(_registered, ("qgates", "report", "schedule", "electronics", "power", "wiring"))


def _common_options(parser: argparse.ArgumentParser, formats: tuple[str, ...] = ("text", "json", "csv"),
                    pin_cp: bool = False) -> None:
    parser.add_argument("--config", metavar="PATH", help="config file (omit for the reference defaults)")
    parser.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
        help="override one config key (repeatable); KEY may be section.key or a short alias",
    )
    parser.add_argument("--format", choices=formats, default="text")
    if pin_cp:
        parser.add_argument(
            "--pin-cp", metavar="FARADS", default=None,
            help="pin the parasitic capacitance used in the power model (e.g. 700fF)",
        )
    parser.add_argument("--out", metavar="PATH", help="write the output to a file instead of stdout")


def _emit(args, *texts: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(texts)
    else:
        sys.stdout.writelines(texts)


def _config_path(args) -> str | None:
    """``--config``, after a note on stderr if the file is missing (the defaults apply)."""
    if args.config and not os.path.exists(args.config):
        sys.stderr.write(f"note: config file {args.config!r} not found, using defaults\n")
    return args.config


def _pinned(args) -> float | None:
    return parse_quantity(args.pin_cp) if args.pin_cp else None


def _require_finite(values: dict[str, object], label: str) -> None:
    for key, value in values.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{label} {key} is not finite ({value})")


def _cmd_report(args) -> int:
    config = load_config(_config_path(args), args.overrides)
    doc = report.build_report(config, pinned_parasitic_f=_pinned(args))
    flat = _flatten(doc)
    _require_finite(flat, "report value")
    if args.format == "json":
        _emit(args, json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")
    elif args.format == "csv":
        _emit(args, _csv([("key", "value"), *sorted(flat.items())]))
    else:
        _emit(args, report.render_text(doc))
    return EXIT_OK


def _flatten(doc, prefix: str = "") -> dict[str, object]:
    flat: dict[str, object] = {}
    for key, value in doc.items():
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict):
            flat.update(_flatten(value, path))
        else:
            flat[path] = value
    return flat


# the sweep-record fields a valid point can leave non-finite, in ``report.SWEEP_FIELDS`` order
_SWEEP_FLOATS = ("rent_exponent", "min_pitch_um", "cycle_mixed_s", "array_total_w")


def _cmd_sweep(args) -> int:
    # the file, the base overrides, --pin-cp and the swept key are read once; the base values are
    # parsed into the first point, and each later point parses only its own value into the last
    entries = read_entries(_config_path(args), args.overrides)
    pinned = _pinned(args)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    points = [f"{args.parameter}={value}" for value in values]
    swept = resolve_override(points[0])[0] if points else None
    sweep = report.Sweep(swept) if points else None
    config, records = ToolConfig(), []
    for value, point in zip(values, points):
        entries[swept] = (point.split("=", 1)[1].strip(), point)  # the value as read_entries splits it
        config, entries = apply_entries(entries, config), {}
        try:  # a section rule or the non-finite rule fails: name the point
            record = report.sweep_record(args.parameter, value, config, pinned, sweep)
            if record["valid"]:
                _require_finite({field: record[field] for field in _SWEEP_FLOATS}, "value")
        except ValueError as exc:
            raise ValueError(f"sweep point {point}: {exc}") from exc
        records.append(record)
    _emit(args, _sweep_json(records) + "\n" if args.format == "json" else _sweep_csv(records))
    return EXIT_OK


_RECORD_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False, separators=(",\n    ", ": "))


def _sweep_json(records: list[dict[str, object]]) -> str:
    """``json.dumps(records, indent=2, sort_keys=True, allow_nan=False)`` for flat records,
    each written by the C encoder, which ``indent`` would switch off."""
    items = ["{\n    " + _RECORD_ENCODER.encode(r)[1:-1] + "\n  }" if r else "{}" for r in records]
    return "[\n  " + ",\n  ".join(items) + "\n]" if items else "[]"


def _sweep_csv(records: list[dict[str, object]]) -> str:
    return _csv([report.SWEEP_FIELDS, *([r.get(f) for f in report.SWEEP_FIELDS] for r in records)])


def _csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _cmd_verify(args) -> int:
    config = load_config(_config_path(args), args.overrides)
    validate_config(config.array).raise_if_invalid()
    checks: list[dict[str, object]] = []

    for check in qgates.verify_identities(corrupt=args.corrupt):
        checks.append({
            "check": f"identity:{check.name}",
            "passed": check.passed,
            "residual": check.residual,
        })
    for kind in ("X", "Z"):
        ok = qgates.verify_plaquette(kind)
        checks.append({"check": f"plaquette:{kind}", "passed": ok, "residual": None})

    table = schedule.default_step_table()
    census = table.census()
    expected = {
        "shuttle_round_trips": CYCLE_SHUTTLES,
        "one_qubit_gates": CYCLE_ONE_QUBIT_GATES,
        "exchanges": CYCLE_EXCHANGES,
        "readout_phases": 1,
        "steps": CYCLE_STEPS,
    }
    checks.append({
        "check": "schedule:census",
        "passed": census == expected,
        "residual": None,
        "detail": census,
    })
    # the README's contract: exactly two steps move only data qubit D1
    solo_ok = sum(s.home_shuttling_qubits() == ("D1",) for s in table.steps) == 2
    checks.append({"check": "schedule:steps-3-13-single-shuttle", "passed": solo_ok, "residual": None})

    try:
        trace = schedule.simulate_cycle(table, config.timing)
        formula = cycle_time(config.timing, config.array, "parallel").total_s
        sim_ok = trace.makespan_s == formula
        detail = {"makespan_s": trace.makespan_s, "formula_s": formula}
    except ScheduleConflictError as exc:
        sim_ok = False
        detail = {"conflict": str(exc)}
    _require_finite(detail, "verify value")  # an overflowing cycle would pass as inf == inf
    checks.append({"check": "schedule:conflict-free", "passed": sim_ok, "residual": None, "detail": detail})

    all_ok = all(c["passed"] for c in checks)
    if args.format == "json":
        doc = {"passed": all_ok, "checks": checks}
        _emit(args, json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")
    else:
        width = max(len(str(c["check"])) for c in checks)
        lines = []
        for c in checks:
            status = "pass" if c["passed"] else "FAIL"
            residual = "" if c["residual"] is None else f"  residual {c['residual']:.3g}"
            lines.append(f"{str(c['check']):<{width}}  {status}{residual}")
        lines.append("all checks passed" if all_ok else "verification FAILED")
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if all_ok else EXIT_VERIFY


def _cmd_simulate(args) -> int:
    config = load_config(_config_path(args), args.overrides)
    table = schedule.load_step_table(args.table) if args.table else schedule.default_step_table()
    try:
        trace = schedule.simulate_cycle(table, config.timing)
    except ScheduleConflictError as exc:
        sys.stderr.write(f"schedule conflict: {exc}\n")
        return EXIT_VERIFY
    # every event time is a window time; the events are expanded only to name a non-finite one
    window_times = chain.from_iterable(times for _, times, _ in trace.runs)
    if not (math.isfinite(trace.makespan_s) and all(map(math.isfinite, window_times))):
        _require_finite({"makespan_s": trace.makespan_s, **{f"event {i} time_s": e.time_s for i, e in
                         enumerate(trace.events) if not math.isfinite(e.time_s)}}, "simulate value")
    if args.format == "csv":
        _emit(args, trace.to_csv())
    elif args.format == "json":
        _emit(args, trace.to_json(), "\n")
    else:
        lines = [
            f"steps               {trace.counters['steps']}",
            f"shuttle round trips {trace.counters['shuttle_round_trips']}",
            f"one-qubit gates     {trace.counters['one_qubit_gates']}",
            f"exchanges           {trace.counters['exchanges']}",
            f"readout phases      {trace.counters['readout_phases']}",
            f"events              {sum(len(template) for _, _, template in trace.runs)}",
            f"makespan            {si_format(trace.makespan_s, 's')}",
        ]
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_dump_unitary(args) -> int:
    params = [float(p) for p in args.params]
    matrix = qgates.gate(args.gate, *params)
    doc = {
        "gate": args.gate,
        "params": params,
        "dim": len(matrix),
        "matrix": [[[float(v.real), float(v.imag)] for v in row] for row in matrix],
    }
    _emit(args, json.dumps(doc, indent=2, allow_nan=False) + "\n")
    return EXIT_OK


_parser: list[argparse.ArgumentParser] = []


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call and reused for the rest of the
    process: ``parse_args`` fills a fresh namespace and copies each ``--set``
    default list, so no call sees another's arguments."""
    if _parser:
        return _parser[0]
    parser = argparse.ArgumentParser(
        prog="spiderweb",
        description="Design-space exploration and verification for the spiderweb sparse spin-qubit array.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="full design report for one configuration")
    _common_options(p_report, pin_cp=True)
    p_report.set_defaults(func=_cmd_report)

    p_sweep = sub.add_parser("sweep", help="evaluate derived quantities over one parameter")
    _common_options(p_sweep, pin_cp=True)
    p_sweep.add_argument("parameter", help=f"config key to sweep (one of: {', '.join(KNOWN_KEYS)})")
    p_sweep.add_argument("values", help="comma-separated value list, SI suffixes allowed; a list that "
                         "starts with '-' goes after '--', with every option before it")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run gate-algebra and schedule verification")
    _common_options(p_verify, formats=("text", "json"))
    p_verify.add_argument("--corrupt", choices=("sp-sign",), default=None,
                          help="negative-control hook: inject a known fault")
    p_verify.add_argument("--json", dest="format", action="store_const", const="json",
                          help="shorthand for --format json")
    p_verify.set_defaults(func=_cmd_verify)

    p_sim = sub.add_parser("simulate", help="simulate one unit-cell cycle")
    _common_options(p_sim)
    p_sim.add_argument("--table", metavar="PATH", help="step-table file (omit for the shipped program)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_dump = sub.add_parser("dump-unitary", help="emit a gate matrix as JSON (row-major re/im pairs)")
    p_dump.add_argument("gate")
    p_dump.add_argument("params", nargs="*", help="rotation angle(s) in radians")
    p_dump.add_argument("--out", metavar="PATH")
    p_dump.set_defaults(func=_cmd_dump_unitary)

    _parser.append(parser)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, but 2 means a failed verification
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (SpiderwebError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
