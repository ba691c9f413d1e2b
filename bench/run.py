"""The spiderweb benchmark: one workload, one seed, one result line.

Run from the repository root:

    python3 bench/run.py --workload sweep_inproc --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with the program untouched;
``--trace 1`` replays the same inputs with layer spans and prints the
per-layer metrics.  The last line of stdout is the JSON result; the metric
names and units are the ones declared in ``BENCHMARK.json``.  See
``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import sys
from time import perf_counter

import checks
import inputs
import program
import tracing

SETUP_SAMPLES = 5           # fresh-interpreter setup timings spread over a run
PROBE_SWEEPS_PER_WINDOW = 1  # sweep-probe ops after each window of verify_inproc
IMPORT_REPEATS = 5          # -X importtime runs per traced run
FLOOR_REPEATS = 10          # python -c pass runs per traced run
PROBE_REPEATS = 3           # passes over the layer probe in a traced run
CAL_EVERY_S = 0.05          # least wall time between two in-process calibration samples
CAL_REFERENCE_S = 1.4e-3    # calibration-loop time that defines the reference speed
FLOOR_REFERENCE_S = 0.06    # `python -c pass` time that defines the reference speed
FLOORS_PER_SETUP = 3        # `python -c pass` samples that scale one setup sample


def calibration_loop() -> float:
    """Seconds for a fixed pure-Python job that does not touch the program."""
    start = perf_counter()
    counts: dict[int, int] = {}
    for i in range(6000):
        counts[i % 97] = counts.get(i % 97, 0) + i * 3 // 7
    rows = [f"{k},{v / 7:.6g}" for k, v in sorted(counts.items())]
    ",".join(rows).split(",")
    return perf_counter() - start


def warm_calibration() -> float:
    """The calibration loop's second run, so the op just run has not left
    the caches cold for it."""
    calibration_loop()
    return calibration_loop()


class Speed:
    """How fast the machine ran in each window, from calibration samples.

    On a shared host, other tenants change the speed by tens of percent from one
    minute to the next.  Scaling each window's times by ``factor`` reports
    them at the reference speed, so runs made minutes apart compare the
    program rather than the neighbours.  ``probe`` times a job that never
    calls the program and is as fast as ``reference`` at the reference speed.
    """

    def __init__(self, probe, reference: float, every: float):
        self.probe, self.reference, self.every = probe, reference, every
        self.samples: dict[int, list[float]] = {}
        self._last = float("-inf")

    def sample(self, window: int, force: bool = False) -> None:
        if force or perf_counter() - self._last >= self.every:
            self.samples.setdefault(window, []).append(self.probe())
            self._last = perf_counter()

    def factor(self, window: int) -> float:
        """Reference time over this window's median probe time."""
        return self.reference / statistics.median(self.samples[window])

    def overall(self) -> float:
        return statistics.median(map(self.factor, self.samples))


def in_process_speed() -> Speed:
    return Speed(warm_calibration, CAL_REFERENCE_S, CAL_EVERY_S)


def floor_speed(env) -> Speed:
    """Speed of fresh interpreters: the right yardstick for child processes."""
    return Speed(lambda: program.run_python("pass", env)[0], FLOOR_REFERENCE_S, 0.0)


class Record:
    """Ops run, the window each ran in, their wall seconds, and which of them
    produced a wrong result."""

    def __init__(self, checker: checks.Checker):
        self.checker = checker
        self.ops: list[inputs.Op] = []
        self.windows: list[int] = []
        self.seconds: list[float] = []
        self.failures: list[tuple[inputs.Op, str]] = []
        self.child_rss_kb = 0

    def add(self, op: inputs.Op, result, window: int = 0) -> None:
        seconds, code, out, err, rss_kb = result
        self.ops.append(op)
        self.windows.append(window)
        self.seconds.append(seconds)
        self.child_rss_kb = max(self.child_rss_kb, rss_kb)
        problem = self.checker.check(op, code, out, err)
        if problem:
            self.failures.append((op, problem))

    def scaled(self, speed: Speed | None = None) -> list[float]:
        """Each op's seconds at the reference speed of its window."""
        if speed is None:
            return list(self.seconds)
        return [s * speed.factor(w) for s, w in zip(self.seconds, self.windows)]


def run_windows(workload, blocks, execute, seconds: float, record: Record,
                speed: Speed | None = None, after_window=lambda window: None) -> None:
    """Run whole windows until ``seconds`` of wall time have passed, with
    calibration samples between ops when ``speed`` is given."""
    start = perf_counter()
    window = 0
    while perf_counter() - start < seconds:
        for block in itertools.islice(blocks, workload.blocks_per_window):
            for op in block:
                record.add(op, execute(op), window)
                if speed:
                    speed.sample(window)
        if speed and window not in speed.samples:
            speed.sample(window, force=True)
        after_window(window)
        window += 1


def setup_once(workload: inputs.Workload, env) -> float:
    """Wall time of a fresh interpreter that imports ``spiderweb.cli`` and
    makes one call of each command the workload uses."""
    code = (
        "import contextlib, io\n"
        "from spiderweb import cli\n"
        f"for argv in {[list(a) for a in workload.setup_argvs]!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        if cli.main(argv) != 0:\n"
        "            raise SystemExit(f'setup call {argv} failed')\n"
    )
    return program.run_python(code, env)[0]


def executor(workload: inputs.Workload, inp, env, cold: bool):
    """The callable that runs one op: a fresh child, or ``cli.main`` in process."""
    if cold:
        return lambda op: program.run_cold(op.argv, env, inp.workdir)
    cli = program.import_cli()
    for argv in workload.setup_argvs:        # fill caches before timing
        program.run_inproc(cli, argv)
    return lambda op: (*program.run_inproc(cli, op.argv), 0)


def p50_ms(seconds: list[float]) -> float:
    return 1e3 * statistics.median(seconds)


def end_to_end(args, workload, inp, checker, env, execute) -> tuple[dict, list[Record]]:
    ops, probe = Record(checker), Record(checker)
    speed = floor_speed(env) if workload.cold else in_process_speed()
    sweep_probe = inputs.sweep_probe(args.seed, inp) if workload.sweep_probe else None
    floor = floor_speed(env)     # setup is a fresh interpreter, whatever the workload

    def setup_sample() -> float:
        index = len(floor.samples)
        for _ in range(FLOORS_PER_SETUP):
            floor.sample(index, force=True)
        return setup_once(workload, env) * floor.factor(index)

    setups = [setup_sample()]
    last_setup = perf_counter()

    def after_window(window: int) -> None:
        nonlocal last_setup
        if sweep_probe is not None:
            for op in itertools.islice(sweep_probe, PROBE_SWEEPS_PER_WINDOW):
                probe.add(op, execute(op), window)
        # spread the setup timings over the run, like the windows
        if perf_counter() - last_setup >= args.seconds / SETUP_SAMPLES:
            setups.append(setup_sample())
            last_setup = perf_counter()

    run_windows(workload, inputs.blocks(args.workload, args.seed, inp), execute,
                args.seconds, ops, speed, after_window)
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample())
    if workload.cold:
        rss_kb = ops.child_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sweeps = probe if sweep_probe is not None else ops
    metrics, raw = {}, {}
    for figures, scale in ((metrics, speed), (raw, None)):
        times, sweep_times = ops.scaled(scale), sweeps.scaled(scale)
        figures["op_p50_ms"] = 1e3 * statistics.median(times)
        figures["op_p90_ms"] = 1e3 * statistics.quantiles(times, n=10)[8]
        figures["ops_per_s"] = len(times) / sum(times)
        figures["points_per_s"] = (sum(op.points for op in sweeps.ops)
                                   / sum(t for op, t in zip(sweeps.ops, sweep_times) if op.points))
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = rss_kb / 1024
    print(f"{args.workload} seed {args.seed}: {len(ops.ops)} ops in {max(ops.windows) + 1} "
          f"windows, {sum(ops.seconds):.3f} s of op time; {len(setups)} setup samples; "
          f"speed factor {speed.overall():.4f} over "
          f"{sum(map(len, speed.samples.values()))} calibration samples")
    print("unscaled: " + json.dumps(raw))
    return metrics, [ops, probe]


def import_probe(env) -> dict[str, float]:
    floor = [program.run_python("pass", env)[0] for _ in range(FLOOR_REPEATS)]
    runs = [
        tracing.import_breakdown(tracing.parse_importtime(
            program.run_python("import spiderweb.cli", env, ("-X", "importtime"))[1]))
        for _ in range(IMPORT_REPEATS)
    ]
    metrics = {key: statistics.median(run[key] for run in runs) for key in runs[0]}
    metrics["import.python_floor_ms"] = 1e3 * statistics.median(floor)
    return metrics


def replay(ops, execute, checker, speed: Speed, tracer: tracing.Tracer | None = None) -> Record:
    """Run ``ops`` once, in one speed window, with ``tracer``'s wrappers on if given."""
    record = Record(checker)
    if tracer:
        tracer.install()
    try:
        for i, op in enumerate(ops):
            if tracer:
                tracer.op = i
            record.add(op, execute(op))
            speed.sample(0)
    finally:
        if tracer:
            tracer.uninstall()
    if 0 not in speed.samples:
        speed.sample(0, force=True)
    return record


def report_op_us(record: Record, speed: Speed) -> dict[str, float]:
    """Median speed-scaled time of the record's ``report`` ops, per format."""
    metrics = {}
    for fmt in inputs.FORMATS:
        times = [s for op, s in zip(record.ops, record.scaled(speed))
                 if op.expect["kind"] == "report" and op.fmt == fmt]
        if times:
            metrics[f"cli.report_{fmt}_us"] = 1e6 * statistics.median(times)
    return metrics


def per_layer(args, workload, inp, checker, env, execute) -> tuple[dict, list[Record]]:
    """Import breakdown, then the workload's ops in process: once untraced,
    once traced; a fixed probe, also run untraced and traced, fills layers
    the workload never calls.  Span figures come from the traced passes,
    op times from the untraced ones."""
    metrics = import_probe(env)
    untraced, untraced_speed = Record(checker), in_process_speed()
    run_windows(workload, inputs.blocks(args.workload, args.seed, inp), execute,
                args.seconds / 2, untraced, untraced_speed)
    traced_speed = in_process_speed()
    tracer = tracing.Tracer()
    traced = replay(untraced.ops, execute, checker, traced_speed, tracer)
    layers = tracing.layer_metrics(tracer, traced.ops, traced.seconds)
    probe_ops = inputs.layer_probe(inp) * PROBE_REPEATS
    probe_speed = in_process_speed()
    untraced_probe = replay(probe_ops, execute, checker, probe_speed)
    probe_tracer = tracing.Tracer()
    probe = replay(probe_ops, execute, checker, in_process_speed(), probe_tracer)
    metrics.update(tracing.layer_metrics(probe_tracer, probe.ops, probe.seconds))
    metrics.update(report_op_us(untraced_probe, probe_speed))
    metrics.update(layers)
    metrics.update(report_op_us(untraced, untraced_speed))
    # both passes at the reference speed, as the end-to-end times are
    metrics["trace.overhead_ms"] = (p50_ms(traced.seconds) * traced_speed.overall()
                                    - p50_ms(untraced.seconds) * untraced_speed.overall())
    print(f"{args.workload} seed {args.seed}: {len(untraced.ops)} ops replayed untraced "
          f"and traced, {len(probe.ops)} probe ops")
    return metrics, [untraced, traced, untraced_probe, probe]


def known_defects(inp, checker, execute) -> None:
    """Run the known-defect inputs once and report them on their own line."""
    record = Record(checker)
    for op in inp.known_defects():
        record.add(op, execute(op))
    detail = "; ".join(f"{op.expect['name']}: {why}" for op, why in record.failures)
    print(f"known defects: {len(record.failures)} of {len(record.ops)} failed"
          + (f" ({detail})" if detail else ""))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="spiderweb benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        program.require_checkout()
        declared = json.loads((program.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (program.MissingProgram, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    workload = inputs.WORKLOADS[args.workload]
    checker = checks.Checker(checks.Goldens())
    env = program.child_env()
    with program.workdir() as work:
        inp = inputs.Inputs(program.ROOT, work)
        # the traced run replays every workload in process
        execute = executor(workload, inp, env, workload.cold and not args.trace)
        measure = per_layer if args.trace else end_to_end
        metrics, records = measure(args, workload, inp, checker, env, execute)
        known_defects(inp, checker, execute)
    if metrics.keys() != units.keys():
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(metrics.keys() ^ units.keys())}")
    failures = [f for r in records for f in r.failures]
    for op, why in failures[:10]:
        print(f"failed: {' '.join(op.argv)[:160]}: {why}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": sum(len(r.ops) for r in records),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
