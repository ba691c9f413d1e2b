"""Command-line front end.

Commands: ``report`` (full design report), ``sweep`` (one parameter over a
value list), ``verify`` (gate-algebra and schedule verification),
``simulate`` (cycle simulation with event-trace export), and ``dump-unitary``
(one gate matrix as JSON).

Exit codes: 0 success, 1 config or usage error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import importlib.util
import math
import os
import sys
from functools import cache
from itertools import chain
from operator import itemgetter

from . import writers
from .config import KNOWN_KEYS, apply_entries, apply_value, load_config, read_entries, resolve_override
from .errors import ScheduleConflictError, SpiderwebError
from .model import CYCLE_CENSUS, CYCLE_STEPS, cycle_time
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
    parser.add_argument("--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
                        help="override one config key (repeatable); KEY may be section.key or a short alias")
    parser.add_argument("--format", choices=formats, default="text")
    if pin_cp:
        parser.add_argument("--pin-cp", metavar="FARADS", default=None,
                            help="pin the parasitic capacitance used in the power model (e.g. 700fF)")
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
    if args.pin_cp is None:
        return None
    try:
        pinned = parse_quantity(args.pin_cp, "F")
    except ValueError as exc:
        raise ValueError(f"--pin-cp: {exc}") from None
    if pinned < 0:
        raise ValueError("--pin-cp: pinned parasitic capacitance must be non-negative")
    return pinned


def _require_finite(values: dict[str, object], label: str, keys=None) -> None:  # only ``keys`` if given
    for key in values if keys is None else keys:
        value = values[key]
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{label} {key} is not finite ({value})")


def _cmd_report(args) -> int:
    config = load_config(_config_path(args), args.overrides)
    doc = report.build_report(config, pinned_parasitic_f=_pinned(args))
    flat = _flatten(doc, {})
    _require_finite(flat, "report value")
    if args.format == "json":
        _emit(args, writers.value(doc), "\n")
    elif args.format == "csv":
        _emit(args, *writers.csv_lines([("key", "value"), *sorted(flat.items())]))
    else:
        _emit(args, report.render_text(doc))
    return EXIT_OK


def _flatten(doc, flat: dict[str, object], prefix: str = "") -> dict[str, object]:
    for key, value in doc.items():
        if isinstance(value, dict):
            _flatten(value, flat, f"{prefix}{key}.")
        else:
            flat[f"{prefix}{key}"] = value
    return flat


def _cmd_sweep(args) -> int:
    # the file, the base overrides, --pin-cp and the swept key are read once; the base values are
    # parsed into the first point, and each later point writes only its own value into the last
    entries = read_entries(_config_path(args), args.overrides)
    pinned = _pinned(args)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    points = [f"{args.parameter}={value}" for value in values]
    swept = resolve_override(points[0])[0] if points else None
    sweep = report.Sweep(swept) if points else None
    config, records = None, []
    for value, point in zip(values, points):
        raw = point.split("=", 1)[1].strip()  # the value as read_entries splits it
        config = apply_value(config, swept, raw, point) if config else apply_entries({**entries, swept: (raw, point)})
        try:  # a section rule or the non-finite rule fails: name the point; only the re-read columns can fail
            record = report.sweep_record(args.parameter, value, config, pinned, sweep)
            if record["valid"]:
                _require_finite(record, "value", sweep.read)
        except ValueError as exc:
            raise ValueError(f"sweep point {point}: {exc}") from exc
        records.append(record)
    _emit(args, writers.value(records) + "\n" if args.format == "json" else _sweep_csv(records))
    return EXIT_OK


def _sweep_csv(records: list[dict[str, object]]) -> str:
    return "".join(writers.csv_lines([report.SWEEP_FIELDS, *map(itemgetter(*report.SWEEP_FIELDS), records)]))


def _cmd_verify(args) -> int:
    config = load_config(_config_path(args), args.overrides)
    config.validate()
    checks: list[dict[str, object]] = [
        {"check": f"identity:{check.name}", "passed": check.passed, "residual": check.residual}
        for check in qgates.verify_identities(corrupt=args.corrupt == "sp-sign")]
    for kind in ("X", "Z"):
        ok = qgates.verify_plaquette(kind, corrupt=args.corrupt == "plaquette")
        checks.append({"check": f"plaquette:{kind}", "passed": ok, "residual": None})

    # the census and the D1-only steps are read from the one simulated trace; a conflict fails all three
    try:
        trace = schedule.simulate_cycle(schedule.default_step_table(), config.timing)
    except ScheduleConflictError as exc:
        census, solo_ok, sim_ok, detail = {}, False, False, {"conflict": str(exc)}
    else:
        census = trace.counters
        # the README's contract: exactly two steps (the first runs) move only data qubit D1
        solo_ok = sum({q for _, q, op, _ in template if op == "shuttle_out" and q in schedule.HOME_QUBITS} == {"D1"}
                      for _, _, template in trace.runs[:census["steps"]]) == 2
        formula = cycle_time(config.timing, config.array, "parallel").total_s
        sim_ok = trace.makespan_s == formula
        detail = {"makespan_s": trace.makespan_s, "formula_s": formula}
    _require_finite(detail, "verify value")  # an overflowing cycle would pass as inf == inf
    census_ok = census == {**CYCLE_CENSUS, "steps": CYCLE_STEPS}
    checks += [{"check": "schedule:census", "passed": census_ok, "residual": None, "detail": census},
               {"check": "schedule:steps-3-13-single-shuttle", "passed": solo_ok, "residual": None},
               {"check": "schedule:conflict-free", "passed": sim_ok, "residual": None, "detail": detail}]

    all_ok = all(c["passed"] for c in checks)
    if args.format == "json":
        _emit(args, writers.value({"checks": checks, "passed": all_ok}), "\n")
    else:
        width = max(len(c["check"]) for c in checks)
        lines = [f"{c['check']:<{width}}  {'pass' if c['passed'] else 'FAIL'}"
                 + ("" if c["residual"] is None else f"  residual {c['residual']:.3g}") for c in checks]
        lines.append("all checks passed" if all_ok else "verification FAILED")
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if all_ok else EXIT_VERIFY


def _cmd_simulate(args) -> int:
    config = load_config(_config_path(args), args.overrides)
    config.validate()
    table = schedule.load_step_table(args.table) if args.table else schedule.default_step_table()
    try:
        trace = schedule.simulate_cycle(table, config.timing)
    except ScheduleConflictError as exc:
        sys.stderr.write(f"schedule conflict: {exc}\n")
        return EXIT_VERIFY
    # a non-finite window time (each event time is one) or an overflow spoils the sum; only then expand events
    if not math.isfinite(sum(chain.from_iterable(map(itemgetter(1), trace.runs)), trace.makespan_s)):
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
    import json  # the one command that writes through json.dumps, so the others load json only for JSON
    params = [parse_quantity(p, unit=False) for p in args.params]
    matrix = qgates.gate(args.gate, *params)
    doc = {"gate": args.gate, "params": params, "dim": len(matrix),  # in this order, not sorted
           "matrix": [[[float(v.real), float(v.imag)] for v in row] for row in matrix]}
    _emit(args, json.dumps(doc, indent=2, allow_nan=False) + "\n")
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call and reused for the rest of the
    process: ``parse_args`` fills a fresh namespace and copies each ``--set``
    default list, so no call sees another's arguments."""
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
    p_verify.add_argument("--corrupt", choices=("sp-sign", "plaquette"), default=None,
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
    p_dump.add_argument("params", nargs="*", help="rotation angle(s) in radians; a negative angle that argparse "
                        "takes for an option, such as -1e-3, goes after '--', with every option before it")
    p_dump.add_argument("--out", metavar="PATH")
    p_dump.set_defaults(func=_cmd_dump_unitary)
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
