"""Layer spans for the traced run, and the import-time breakdown.

``Tracer.install`` wraps each layer function object wherever a ``spiderweb.*``
module binds it: as a module global, as a class attribute, or inside a
module-level table such as the config parser map.  Each call then records a
span (name, op, depth, seconds) in memory.  Only the traced run installs the
wrappers; the end-to-end runs call the program untouched.
"""

from __future__ import annotations

import statistics
import sys
from time import perf_counter

# (module, attribute) of every traced function, in pipeline order.
LAYER_FUNCTIONS = (
    ("cli", "build_parser"),
    ("config", "load_config"),
    ("config", "parse_config_text"),
    ("units", "parse_quantity"),
    ("model", "validate_config"),
    ("model", "derive_geometry"),
    ("wiring", "lines_at"),
    ("wiring", "rent_exponent"),
    ("wiring", "logical_qubit_capacity"),
    ("electronics", "min_hold_capacitance"),
    ("electronics", "footprint"),
    ("power", "parasitic_capacitance"),
    ("power", "total_power"),
    ("schedule", "cycle_time"),
    ("report", "build_report"),
    ("report", "render_text"),
    ("report", "sweep_record"),
    ("schedule", "default_step_table"),
    ("schedule", "step_table_from_text"),
    ("schedule", "simulate_cycle"),
    ("schedule", "EventTrace.to_csv"),
    ("qgates", "verify_identities"),
    ("qgates", "verify_plaquette"),
    ("qgates", "expand"),
    ("qgates", "compose"),
)


def _span_name(name: str, attr: str, args, kwargs, result) -> str:
    if attr == "sweep_record":
        return name + ("_valid" if result["valid"] else "_rejected")
    if attr == "verify_plaquette":
        return f"{name}_{kwargs.get('kind', args[0] if args else '')}"
    return name


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, int, float]] = []   # name, op, depth, seconds
        self.events_per_cycle: list[int] = []
        self.op = -1
        self._depth = 0
        self._undo: list = []

    def _wrap(self, module: str, attr: str, fn):
        tracer = self
        base = f"{module}.{attr.rsplit('.', 1)[-1]}"

        def traced(*args, **kwargs):
            depth = tracer._depth
            tracer._depth = depth + 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(base, depth, start, perf_counter())
                raise
            end = perf_counter()
            tracer._close(_span_name(base, attr, args, kwargs, result), depth, start, end)
            if attr == "simulate_cycle":
                tracer.events_per_cycle.append(len(result.events))
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, name: str, depth: int, start: float, end: float) -> None:
        self._depth = depth
        self.spans.append((name, self.op, depth, end - start))

    def install(self) -> None:
        """Rebind every traced function in every loaded ``spiderweb`` module."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "spiderweb" or name.startswith("spiderweb.")]
        namespaces = []
        for module in modules:
            namespaces.append(module)
            namespaces += [v for v in vars(module).values()
                           if isinstance(v, type) and v.__module__ == module.__name__]
        for module_name, attr in LAYER_FUNCTIONS:
            owner = sys.modules[f"spiderweb.{module_name}"]
            for part in attr.split("."):
                owner = getattr(owner, part)
            original, wrapper = owner, self._wrap(module_name, attr, owner)
            for space in namespaces:
                for key, value in list(vars(space).items()):
                    if value is original:
                        self._rebind(space, key, original, wrapper)
                    elif isinstance(value, dict) and not isinstance(space, type):
                        self._rebind_table(value, original, wrapper)

    def _rebind(self, space, key, original, wrapper) -> None:
        setattr(space, key, wrapper)
        self._undo.append(lambda: setattr(space, key, original))

    def _rebind_table(self, table: dict, original, wrapper) -> None:
        for key, value in list(table.items()):
            if value is original:
                table[key] = wrapper
            elif isinstance(value, tuple) and any(v is original for v in value):
                table[key] = tuple(wrapper if v is original else v for v in value)
            else:
                continue
            self._undo.append(lambda key=key, value=value: table.__setitem__(key, value))

    def uninstall(self) -> None:
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()


def layer_metrics(tracer: Tracer, ops, op_seconds: list[float]) -> dict[str, float]:
    """Per-call busy time of each traced function, the per-op counts, and
    how much of the op time the top-level spans cover."""
    busy: dict[str, list[float]] = {}
    top = 0.0
    per_op: dict[tuple[int, str], int] = {}
    for name, op, depth, seconds in tracer.spans:
        busy.setdefault(name, []).append(seconds)
        per_op[op, name] = per_op.get((op, name), 0) + 1
        if depth == 0:
            top += seconds
    metrics = {f"{name}_us": 1e6 * sum(times) / len(times) for name, times in busy.items()}

    def calls_per(command: str, span: str) -> None | float:
        indices = [i for i, op in enumerate(ops)
                   if op.command == command and op.expect["kind"] == command]
        if indices:
            return sum(per_op.get((i, span), 0) for i in indices) / len(indices)
        return None

    counts = {
        "model.validate_calls_per_report": calls_per("report", "model.validate_config"),
        "qgates.expand_calls_per_verify": calls_per("verify", "qgates.expand"),
        "schedule.events_per_cycle": (statistics.mean(tracer.events_per_cycle)
                                      if tracer.events_per_cycle else None),
    }
    metrics.update({k: v for k, v in counts.items() if v is not None})
    metrics["trace.span_coverage"] = top / sum(op_seconds)
    return metrics


# ---------------------------------------------------------------------------
# -X importtime

def parse_importtime(stderr: str) -> list[tuple[str, int, int, int]]:
    """(module, depth, self us, cumulative us) per line, in the order printed."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        indent = len(name) - len(name.lstrip(" ")) - 1
        entries.append((name.strip(), indent // 2, int(self_us), int(cum_us)))
    return entries


def _within(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


def import_breakdown(entries) -> dict[str, float]:
    """Import-layer figures of one ``python -X importtime -c 'import spiderweb.cli'``."""
    stack: list[str] = []
    top_cum = {"scipy": 0, "numpy": 0}
    spiderweb_self = 0
    cli_ms = None
    loaded = 0
    # importtime prints children before their parent; walk it backwards so
    # every module comes after its ancestors
    for name, depth, self_us, cum_us in reversed(entries):
        ancestors = stack[:depth]
        stack = ancestors + [name]
        for package in top_cum:
            if _within(name, package) and not any(_within(a, package) for a in ancestors):
                top_cum[package] += cum_us
        if _within(name, "spiderweb"):
            spiderweb_self += self_us
        if depth == 0:
            if cli_ms is not None:
                break
            if name == "spiderweb.cli":
                cli_ms = cum_us / 1e3
        if cli_ms is not None:
            loaded += 1
    return {
        "import.spiderweb_cli_ms": cli_ms,
        "import.scipy_ms": top_cum["scipy"] / 1e3,
        "import.numpy_ms": top_cum["numpy"] / 1e3,
        "import.spiderweb_self_ms": spiderweb_self / 1e3,
        "import.modules_loaded": loaded,
    }
