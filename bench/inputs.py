"""Seeded inputs for the spiderweb benchmark.

Everything a workload sends to the program is built here from the workload
seed: the op blocks (one CLI command each), the config files and the
generated step tables.  The program only ever sees the generated argv and
files; the expectations attached to each op are what ``checks`` compares the
program's output against.

Each workload repeats a *block*: a fixed multiset of op templates whose order,
values, configs and angles the seed chooses.  Keeping the multiset fixed keeps
the distribution of op costs the same for every seed, so the medians and
percentiles of different seeds are comparable.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

SHIPPED_TABLE = Path("src/spiderweb/data/unit_cell_cycle.steps")

FORMATS = ("text", "json", "csv")


@dataclass(frozen=True)
class Op:
    """One CLI command: its argv (after ``spiderweb``) and what it must produce."""

    command: str            # report | sweep | verify | simulate | dump-unitary
    argv: tuple[str, ...]
    expect: dict = field(hash=False, compare=False)
    points: int = 0         # design points a sweep op evaluates

    @property
    def fmt(self) -> str:
        return self.expect.get("format", "")


# ---------------------------------------------------------------------------
# Config pool: reference and non-reference designs, two of them as files so
# the config-file parser is on the measured path.

@dataclass(frozen=True)
class PoolConfig:
    overrides: tuple[str, ...] = ()
    pin_cp: str | None = None
    file_text: str | None = None


_SMALL_FILE = """\
# 128x128-cell plane, 8x8 readout modules fully read in parallel
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
# 2048x2048-cell plane at 10 um pitch
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

CONFIG_POOL: dict[str, PoolConfig] = {
    "reference": PoolConfig(),
    "crossbars": PoolConfig(overrides=("x=200",)),
    "pitch": PoolConfig(overrides=("d=20um", "drift=0.2V/s", "t_r=2us")),
    "pinned": PoolConfig(overrides=("x=8",), pin_cp="700fF"),
    "small_file": PoolConfig(file_text=_SMALL_FILE),
    "large_file": PoolConfig(overrides=("x=50",), file_text=_LARGE_FILE),
}


# ---------------------------------------------------------------------------
# Sweep families: one swept key over a fixed 512-value grid.  Goldens hold one
# row per grid value, so any seeded subset can be checked.

@dataclass(frozen=True)
class SweepFamily:
    parameter: str
    grid: tuple[str, ...]
    base: tuple[str, ...] = ()   # --set overrides applied before the swept value


SWEEP_FAMILIES: dict[str, SweepFamily] = {
    # 448 valid crossbar counts and 64 negative ones the validator rejects
    "x": SweepFamily("x", tuple(str(v) for v in range(-64, 448))),
    "d": SweepFamily("d", tuple(f"{nm}nm" for nm in range(6000, 6000 + 512 * 50, 50))),
    # every n_b but 32 breaks the tiling against the default readout edge
    "n_b": SweepFamily("n_b", tuple(str(v) for v in range(1, 513))),
    "t_r": SweepFamily("t_r", tuple(f"{20 * k}ns" for k in range(1, 513))),
    "lines_per_layer": SweepFamily("lines_per_layer", tuple(str(v) for v in range(1, 513))),
    "drift": SweepFamily("drift", tuple(f"{k}mV/s" for k in range(1, 513))),
    # a 3x3 readout module: r=3 passes the validator but is not a power of
    # two, every other r mismatches the q*r split
    "r": SweepFamily("r", tuple(str(v) for v in range(1, 513)), ("n_b=24", "n_r=3", "q=3")),
}

# Error-path inputs: each must exit 1 with one ``error:`` line.
_ERRORS = (
    ("tiling", ("report", "--set", "n_b=7")),
    ("unknown-key", ("report", "--set", "foo=1")),
    ("bad-value", ("report", "--set", "w=abc")),
    ("sweep-unknown-key", ("sweep", "nosuch", "1,2")),
    ("bad-config-file", ("report", "--config", "{bad_config}")),
    ("bad-step-table", ("simulate", "--table", "{bad_table}")),
)

# Inputs the program is known to mishandle (see ROADMAP item 4).  They are run
# once per run, outside the measured ops, and reported on their own line.
KNOWN_DEFECTS = (
    ("overflow-x", ("report", "--set", "x=1e400")),
)

_BAD_CONFIG = "[array]\nqubit_pitch 13um\n"
_BAD_TABLE = "1 teleport D1@op1\n"


# ---------------------------------------------------------------------------
# Step tables

@dataclass(frozen=True)
class StepTableInput:
    """A step table's text plus the facts the simulator's output must match."""

    text: str
    census: dict[str, int]
    events: int
    hooks: int


def _step_body(line: str) -> str | None:
    line = line.split("#", 1)[0].strip()
    return line.split(None, 1)[1] if line else None


def _describe(bodies: list[str]) -> StepTableInput:
    census = {"shuttle_round_trips": 0, "one_qubit_gates": 0, "exchanges": 0,
              "readout_phases": 0, "steps": len(bodies)}
    events = hooks = 0
    for body in bodies:
        kind, *items = body.split()
        if kind.removesuffix("+park") == "one_qubit":
            census["shuttle_round_trips"] += 1
            census["one_qubit_gates"] += 1
            events += 3 * len(items)           # out, gate, back per qubit
        elif kind == "two_qubit":
            census["shuttle_round_trips"] += 3
            census["one_qubit_gates"] += 1
            census["exchanges"] += 2
            events += 15 * len(items)          # 2x(4 moves + 2 gates) + rz visit
        elif kind == "readout":
            census["readout_phases"] += 1
            events += len(items)
        else:
            hooks += 1
    text = "".join(f"{i} {body}\n" for i, body in enumerate(bodies, start=1))
    return StepTableInput(text, census, events, hooks)


def shipped_bodies(root: Path) -> list[str]:
    text = (root / SHIPPED_TABLE).read_text(encoding="utf-8")
    return [b for b in map(_step_body, text.splitlines()) if b]


def generated_table(rng: random.Random, steps: int, bodies: list[str]) -> StepTableInput:
    """``steps`` steps renumbered 1..N: shipped gate steps, then park and readout.

    Only the shipped non-park one_qubit/two_qubit steps are drawn, and the
    shipped park and readout steps close the table, so every generated table
    keeps each qubit in one place per window and parks before it reads out.
    """
    pool = [b for b in bodies if b.split()[0] in ("one_qubit", "two_qubit")]
    tail = [b for b in bodies if b.split()[0] in ("one_qubit+park", "readout")]
    return _describe([rng.choice(pool) for _ in range(steps - len(tail))] + tail)


# ---------------------------------------------------------------------------
# Op builders

class Inputs:
    """Files written for one run, and the op builders that use them."""

    def __init__(self, root: Path, workdir: Path):
        self.workdir = workdir
        self.bodies = shipped_bodies(root)
        self.shipped = _describe(self.bodies)
        self.config_paths: dict[str, str] = {}
        for name, pool in CONFIG_POOL.items():
            if pool.file_text is not None:
                self.config_paths[name] = self._write(f"{name}.cfg", pool.file_text)
        self.error_paths = {
            "bad_config": self._write("bad.cfg", _BAD_CONFIG),
            "bad_table": self._write("bad.steps", _BAD_TABLE),
        }
        self._tables = 0

    def _write(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def report(self, name: str, fmt: str) -> Op:
        pool = CONFIG_POOL[name]
        argv = ["report", "--format", fmt]
        if name in self.config_paths:
            argv += ["--config", self.config_paths[name]]
        for override in pool.overrides:
            argv += ["--set", override]
        if pool.pin_cp:
            argv += ["--pin-cp", pool.pin_cp]
        return Op("report", tuple(argv), {"kind": "report", "config": name, "format": fmt})

    def sweep(self, family: str, values: list[str], fmt: str) -> Op:
        fam = SWEEP_FAMILIES[family]
        # argparse reads a leading '-' as an option, so start on a value without one
        first = next(i for i, v in enumerate(values) if not v.startswith("-"))
        values = [values[first], *values[:first], *values[first + 1:]]
        argv = ["sweep", fam.parameter, ",".join(values), "--format", fmt]
        for override in fam.base:
            argv += ["--set", override]
        return Op("sweep", tuple(argv),
                  {"kind": "sweep", "family": family, "values": values, "format": fmt},
                  points=len(values))

    def seeded_sweep(self, rng: random.Random, family: str, size: int, fmt: str) -> Op:
        return self.sweep(family, rng.sample(SWEEP_FAMILIES[family].grid, size), fmt)

    def verify(self) -> Op:
        return Op("verify", ("verify", "--json"), {"kind": "verify", "format": "json"})

    def write_table(self, table: StepTableInput) -> tuple[str, StepTableInput]:
        self._tables += 1
        return self._write(f"table{self._tables}.steps", table.text), table

    def simulate(self, rng: random.Random, fmt: str,
                 table_file: tuple[str, StepTableInput] | None = None) -> Op:
        timing = {
            "t_sh": rng.randint(20, 80),
            "t_1q": rng.randint(10, 50),
            "t_sw": rng.randint(10, 50),
            "t_r": rng.randint(50, 200) * 10,
        }
        argv = ["simulate", "--format", fmt]
        for key, ns in timing.items():
            argv += ["--set", f"{key}={ns}ns"]
        table = self.shipped
        if table_file is not None:
            path, table = table_file
            argv += ["--table", path]
        c = table.census
        makespan = (c["shuttle_round_trips"] * (timing["t_sh"] * 1e-9)
                    + c["one_qubit_gates"] * (timing["t_1q"] * 1e-9)
                    + c["exchanges"] * (timing["t_sw"] * 1e-9)
                    + c["readout_phases"] * (timing["t_r"] * 1e-9))
        return Op("simulate", tuple(argv), {
            "kind": "simulate", "format": fmt, "census": c, "events": table.events,
            "hooks": table.hooks, "makespan_s": makespan,
        })

    def dump_unitary(self, rng: random.Random, gate: str) -> Op:
        # fixed-point text so argparse takes a negative angle as a positional
        text = f"{rng.uniform(-2 * math.pi, 2 * math.pi):.12f}"
        return Op("dump-unitary", ("dump-unitary", gate, text),
                  {"kind": "dump", "gate": gate, "angle": float(text), "format": "json"})

    def error(self, name: str) -> Op:
        argv = dict(_ERRORS)[name]
        argv = tuple(a.format(**self.error_paths) for a in argv)
        return Op(argv[0], argv, {"kind": "error", "name": name})

    def known_defects(self) -> list[Op]:
        return [Op(argv[0], argv, {"kind": "error", "name": name}) for name, argv in KNOWN_DEFECTS]


ERROR_NAMES = tuple(name for name, _ in _ERRORS)


# ---------------------------------------------------------------------------
# Workloads

# (steps, format) of the generated-table simulations in a verify_inproc block
VERIFY_TABLES = ((16, "json"), (64, "csv"), (128, "json"), (256, "csv"),
                 (512, "csv"), (512, "csv"), (512, "json"))
TABLE_SIZES = tuple(sorted({steps for steps, _ in VERIFY_TABLES}))
TABLES_PER_SIZE = 3


@dataclass(frozen=True)
class Workload:
    cold: bool                  # one fresh interpreter per op
    # A window is the unit one speed factor covers: whole blocks spanning one
    # full rotation of the sizes and formats, so every window has the same
    # mix of op costs.
    blocks_per_window: int
    setup_argvs: tuple[tuple[str, ...], ...]   # one call of each command it uses
    sweep_probe: bool = False   # no sweep ops of its own: see ``sweep_probe``


WORKLOADS = {
    "cold_cli": Workload(
        True, 1,
        (("report",), ("sweep", "x", "0,1"), ("verify", "--json"), ("simulate",),
         ("dump-unitary", "rx", "0.5")),
    ),
    "sweep_inproc": Workload(
        False, 8,
        (("sweep", "x", "0,1"), ("report",)),
    ),
    "verify_inproc": Workload(
        False, 1,
        (("verify", "--json"), ("simulate",), ("dump-unitary", "rx", "0.5"),
         ("sweep", "t_r", "20ns,40ns")),
        sweep_probe=True,
    ),
}


def blocks(workload: str, seed: int, inputs: Inputs):
    """Yield the workload's op blocks forever; the same seed gives the same blocks."""
    rng = random.Random(f"{workload}:{seed}")
    families = list(SWEEP_FAMILIES)
    pool = list(CONFIG_POOL)
    tables = {
        size: [inputs.write_table(generated_table(rng, size, inputs.bodies))
               for _ in range(TABLES_PER_SIZE)]
        for size in TABLE_SIZES
    } if workload == "verify_inproc" else {}
    k = 0
    while True:
        if workload == "cold_cli":
            block = [inputs.report(rng.choice(pool), fmt) for fmt in FORMATS]
            block += [inputs.simulate(rng, fmt) for fmt in FORMATS]
            block += [inputs.verify(), inputs.dump_unitary(rng, rng.choice(("rx", "ry", "rz")))]
            block += [inputs.seeded_sweep(rng, rng.choice(families), 8, rng.choice(("csv", "json")))
                      for _ in range(4)]
            block += [inputs.error(name) for name in rng.sample(ERROR_NAMES, 2)]
        elif workload == "sweep_inproc":
            # sizes and formats rotate with the block index, never with the seed
            block = [
                inputs.seeded_sweep(rng, fam, 64 * (1 + (k + 3 * j) % 8),
                                    "json" if (j + k) % 2 == 0 else "csv")
                for j, fam in enumerate(families)
            ]
            block.append(inputs.report(rng.choice(pool), FORMATS[k % 3]))
        elif workload == "verify_inproc":
            # The block's cost order puts the median op well inside the eight
            # verifies and the p90 op inside the two 512-step csv simulations.
            block = [inputs.verify() for _ in range(8)]
            block += [inputs.simulate(rng, "json"), inputs.simulate(rng, "csv")]
            block += [inputs.simulate(rng, fmt, rng.choice(tables[size]))
                      for size, fmt in VERIFY_TABLES]
            block += [inputs.dump_unitary(rng, gate) for gate in ("rx", "ry", "rz")]
        else:
            raise ValueError(f"unknown workload {workload!r}")
        rng.shuffle(block)
        yield block
        k += 1


def sweep_probe(seed: int, inputs: Inputs):
    """Yield 64-point ``t_r`` sweeps forever.

    verify_inproc has no sweep ops of its own, yet every workload reports
    points_per_s; it runs a few of these after each window, outside its op
    metrics.
    """
    rng = random.Random(f"sweep-probe:{seed}")
    while True:
        yield inputs.seeded_sweep(rng, "t_r", 64, "json")


def layer_probe(inputs: Inputs) -> list[Op]:
    """Fixed ops that reach every traced layer.

    The traced run takes a layer's figures from the workload's own ops and
    falls back to these only for layers the workload never calls.
    """
    rng = random.Random("layer-probe")
    x_grid, r_grid = SWEEP_FAMILIES["x"].grid, SWEEP_FAMILIES["r"].grid
    ops = [inputs.report(name, fmt) for name in ("reference", "small_file") for fmt in FORMATS]
    ops += [inputs.sweep("x", list(x_grid[32:96]), "csv"), inputs.sweep("r", list(r_grid[:64]), "json"),
            inputs.verify(), inputs.simulate(rng, "json"),
            inputs.simulate(rng, "csv", inputs.write_table(generated_table(rng, 64, inputs.bodies))),
            inputs.dump_unitary(rng, "rz")]
    return ops
