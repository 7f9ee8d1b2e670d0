"""The benchmark's workloads: set-up, the timed operation and the correctness oracle.

A workload is a sequence of operations over lane seeds derived from the base
seed; each operation is one call into neuroloop.

* ``sweep_rns`` / ``sweep_adbs``: operation ``i`` is one ``engine.sweep`` call
  over ``LANES`` consecutive seeds, followed by ``metrics.scan_delivered_series``
  on every lane (the acceptance-criterion-7 path, no files).
* ``run_replay_ecap``: operation ``2k`` is ``cli.main(["run", ...])`` for lane
  ``k`` and operation ``2k+1`` is ``cli.main(["replay", ...])`` on the
  directory it wrote.

Only the calls into neuroloop are timed. Rendering and hashing of outputs,
and every check, happen between operations or after the timed section.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import signal
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

SCENARIO_FILES = {
    "sweep_rns": "rns_epilepsy.json",
    "sweep_adbs": "adbs_parkinsons.json",
    "run_replay_ecap": "ecap_scs.json",
}
WORKLOADS = tuple(SCENARIO_FILES)
CLI_WORKLOAD = "run_replay_ecap"

# Seeds per engine.sweep call. The sweep that exists in use is
# sweep(scenario, 100) (acceptance criterion 7); at the full reference
# durations it takes about 40 s on rns, and with the oracle's serial re-run
# no run could afford it. 16 is the widest batch of which two calls fit one
# 10 s run; it keeps the scenarios' full durations.
LANES = 16
SEED_STRIDE = 10_000     # lane i of base seed n uses seed: file seed + n * SEED_STRIDE + i
MIN_CLI_CALLS = 110      # so the p90 CLI latency has at least 10 samples beyond it
TRACE_LANES = 16         # the traced phase re-runs exactly the first 16 lanes (one sweep call)
REF_ROUNDS = 24          # rounds of the reference task: 0.4 to 0.7 ms at rest, more inside an operation
REF_NOMINAL_S = 0.0008   # the reference task's time at the speed timings are scaled to
PROBE_INTERVAL_S = 0.025 # the speed probe runs the reference task this often
PROBE_WINDOW_S = 0.1     # an operation's speed comes from probe samples this close to it
OUTPUT_FILES = ("timeseries.csv", "events.jsonl", "summary.json")
DIGESTS_PATH = HERE / "digests.json"


class BenchError(Exception):
    """The checkout cannot be benchmarked: sources or scenarios missing or invalid."""


def load_neuroloop() -> SimpleNamespace:
    """Import neuroloop from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "neuroloop" / "__init__.py").is_file():
        raise BenchError(f"neuroloop sources not found under {src}")
    sys.path.insert(0, str(src))
    package = importlib.import_module("neuroloop")
    if Path(package.__file__).resolve().parent != (src / "neuroloop").resolve():
        raise BenchError(f"neuroloop was imported from {package.__file__}, not {src}")
    modules = ("scenario", "engine", "metrics", "outputs", "cli")
    return SimpleNamespace(
        package=package,
        **{m: importlib.import_module(f"neuroloop.{m}") for m in modules},
    )


@dataclass
class Setup:
    """A workload ready to run: neuroloop imported, scenario loaded, validated, built."""

    workload: str
    nl: SimpleNamespace
    scenario: object        # neuroloop Scenario whose seed is the first lane seed
    lane_base: int
    # Originals captured before any tracing, used by the oracle only.
    run_scenario: object
    render: tuple
    pending_run_rc: int = 0   # exit code of the CLI run whose replay comes next


def prepare(workload: str, seed: int) -> Setup:
    """Everything ``setup_s`` measures: import, load, validate and build."""
    nl = load_neuroloop()
    path = ROOT / "scenarios" / SCENARIO_FILES[workload]
    try:
        raw = nl.scenario.load_scenario_file(path)
    except OSError as e:
        raise BenchError(f"cannot read scenario {path}: {e}") from e
    raw["seed"] = raw["seed"] + seed * SEED_STRIDE
    report = nl.scenario.validate_scenario(raw)
    if not report.ok:
        raise BenchError(f"{path} fails validation: {report.to_dict()['findings']}")
    scenario = nl.scenario.scenario_from_dict(raw)
    out = nl.outputs
    return Setup(
        workload=workload,
        nl=nl,
        scenario=scenario,
        lane_base=raw["seed"],
        run_scenario=nl.engine.run_scenario,
        render=(out.timeseries_csv_text, out.events_jsonl_text, out.summary_json_text),
    )


# ---------------------------------------------------------------------------
# Lanes: one seed's run and what the oracle knows about it
# ---------------------------------------------------------------------------

@dataclass
class Lane:
    seed: int
    ops: tuple                      # the operations this lane counts as
    digests: dict
    counts: dict
    problems: list = field(default_factory=list)   # (op, message)

    def failed_ops(self) -> int:
        return len({op for op, _ in self.problems})

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "digests": self.digests,
            "counts": self.counts,
            "problems": [f"{op}: {msg}" for op, msg in self.problems],
        }


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sim_counts(summary_text: str, events_text: str) -> dict:
    """Exact simulated counts of one run, read from its rendered outputs."""
    m = json.loads(summary_text)["metrics"]
    codes = Counter(json.loads(line)["code"] for line in events_text.splitlines())
    return {
        "seizure_onsets": m["seizure_count"],
        "early_terminations": m["early_termination_count"],
        "fallback_frac": m["fallback_frac"],
        "limit_clamp_count": m["limit_clamp_count"],
        "teed_total": m["teed_total"],
        "events": dict(sorted(codes.items())),
    }


def sum_counts(lanes: list) -> dict:
    total: dict = {"lanes": len(lanes)}
    events: Counter = Counter()
    for lane in lanes:
        for key, value in lane.counts.items():
            if key == "events":
                events.update(value)
            else:
                total[key] = total.get(key, 0) + value
    total["events"] = dict(sorted(events.items()))
    return total


def _result_lane(setup: Setup, seed: int, result, scan) -> Lane:
    """The lane of ``seed``, whose run the sweep returned as ``result``."""
    texts = [render(result) for render in setup.render]
    lane = Lane(
        seed=seed,
        ops=("lane",),
        digests=dict(zip(OUTPUT_FILES, map(sha256, texts))),
        counts=sim_counts(texts[2], texts[1]),
    )
    if result.scenario.seed != seed:
        lane.problems.append(("lane", f"sweep returned seed {result.scenario.seed} here"))
    if result.aborted:
        lane.problems.append(("lane", "run aborted"))
    faults = json.loads(texts[2])["fault_count"]
    if faults:
        lane.problems.append(("lane", f"{faults} Fault event(s)"))
    if not scan.ok:
        lane.problems.append(("lane", f"limit scan: {len(scan.violations)} violation(s)"))
    return lane


def _rundir_lane(seed: int, rundir: Path, rc_run: int, rc_replay: int, replay_out: str) -> Lane:
    paths = [rundir / name for name in OUTPUT_FILES]
    texts = [p.read_text(encoding="utf-8") if p.is_file() else "" for p in paths]
    lane = Lane(
        seed=seed,
        ops=("run", "replay"),
        digests=dict(zip(OUTPUT_FILES, map(sha256, texts))),
        counts={},
    )
    if rc_run != 0:
        lane.problems.append(("run", f"exit code {rc_run}"))
    if not all(p.is_file() for p in paths):
        lane.problems.append(("run", "missing output file(s)"))
        return lane
    lane.counts = sim_counts(texts[2], texts[1])
    summary = json.loads(texts[2])
    if summary["aborted"]:
        lane.problems.append(("run", "run aborted"))
    if summary["fault_count"]:
        lane.problems.append(("run", f"{summary['fault_count']} Fault event(s)"))
    if rc_replay != 0:
        lane.problems.append(("replay", f"exit code {rc_replay}"))
    try:
        report = json.loads(replay_out)
    except json.JSONDecodeError:
        report = {}
    if report.get("ok") is not True:
        lane.problems.append(("replay", f"replay not ok: {report or replay_out[:200]!r}"))
    return lane


# ---------------------------------------------------------------------------
# Host speed reference
# ---------------------------------------------------------------------------

_REF_SIGNAL = np.sin(np.arange(64) * 0.37)


@dataclass(frozen=True)
class _RefState:
    value: float
    tick: int


def _reference_task() -> int:
    """A fixed imitation of a tick's mix: small numpy draws and FFTs, fsum,
    frozen-dataclass replace and float formatting. It calls no neuroloop code."""
    rng = np.random.default_rng(12345)
    state = _RefState(0.0, 0)
    rows = []
    for i in range(REF_ROUNDS):
        frame = _REF_SIGNAL + rng.standard_normal(64) * 0.1
        value = math.fsum(np.abs(np.diff(frame)).tolist())
        value += float(np.abs(np.fft.rfft(frame))[3:9].sum())
        state = replace(state, value=state.value + value, tick=i)
        if i % 4 == 0:
            rows.append(",".join((str(i), repr(state.value), repr(value))))
    return len(json.dumps({"rows": rows}, sort_keys=True))


def reference_seconds(reps: int = 9) -> float:
    """Median wall time of the reference task."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        _reference_task()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def speed_scale(ref_times: list) -> float:
    """Factor that takes a wall time to the reference speed: the mean of
    REF_NOMINAL_S / t over reference times t measured during it."""
    return statistics.fmean(REF_NOMINAL_S / t for t in ref_times)


class SpeedProbe:
    """Samples the host's speed all through the timed section.

    The shared host's speed drifts by tens of percent within seconds, and a
    sweep operation lasts seconds, so reference times taken only between
    operations miss the drift inside one. An interval timer runs the
    reference task every PROBE_INTERVAL_S from a SIGALRM handler. The
    handler runs in the main thread, between two bytecodes of whatever is
    executing, so the benchmark stays one thread. Its time is subtracted
    from the operation it interrupted.
    """

    def __init__(self) -> None:
        self.samples: list = []   # (start, seconds)
        self._busy = False

    def _handler(self, signum, frame) -> None:
        if self._busy:   # the timer fired again while a stalled sample was running
            return
        self._busy = True
        start = time.perf_counter()
        _reference_task()
        self.samples.append((start, time.perf_counter() - start))
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        # Run the task once before the timer is armed, so every module it uses
        # is imported here. numpy imports numpy.random and numpy.fft lazily: a
        # handler that fired while the program was importing one of them would
        # re-enter the half-done import and fail.
        _reference_task()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.siginterrupt(signal.SIGALRM, False)   # restart interrupted system calls
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def settle(self, sample: "Sample") -> None:
        """Set the sample's probe-free seconds and its speed scale."""
        inside = [d for t, d in self.samples if sample.start <= t < sample.end]
        near = [d for t, d in self.samples
                if sample.start - PROBE_WINDOW_S <= t < sample.end + PROBE_WINDOW_S]
        sample.seconds = sample.end - sample.start - sum(inside)
        sample.refs = near or [d for _, d in self.samples]
        sample.scale = speed_scale(sample.refs)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

@dataclass
class Sample:
    """One timed operation, which is exactly one call into neuroloop."""

    kind: str               # "sweep", "run" or "replay"
    start: float            # perf_counter just before and just after the call
    end: float
    ticks: int
    lanes: list             # the lanes this operation completed
    seconds: float = 0.0    # end - start less the speed probe's time inside
    refs: list = field(default_factory=list)   # reference times measured during and near it
    scale: float = 1.0


def us_per_tick(samples: list, scaled: bool = True) -> float:
    """Wall µs per simulated tick over all of ``samples``: summed (scaled)
    seconds over summed ticks."""
    seconds = sum(s.seconds * (s.scale if scaled else 1.0) for s in samples)
    return seconds / sum(s.ticks for s in samples) * 1e6


def sweep_op(setup: Setup, i: int, workdir: Path) -> Sample:
    """Operation i: engine.sweep over lanes i*LANES .. i*LANES+LANES-1, then the limit scans."""
    nl = setup.nl
    scenario = setup.scenario.with_seed(setup.lane_base + i * LANES)
    start = time.perf_counter()
    results = nl.engine.sweep(scenario, LANES)
    scans = [
        nl.metrics.scan_delivered_series(
            r.delivered_mA,
            r.scenario.limits,
            nl.outputs.scan_pulse_width_us(r.scenario),
            initial_mA=r.initial_delivered_mA,
        )
        for r in results
    ]
    end = time.perf_counter()
    ticks = sum(r.n_ticks for r in results)
    lanes = [
        _result_lane(setup, scenario.seed + j, r, s)
        for j, (r, s) in enumerate(zip(results, scans))
    ]
    for j in range(len(results), LANES):
        lanes.append(Lane(scenario.seed + j, ("lane",), dict.fromkeys(OUTPUT_FILES, ""), {},
                          [("lane", "missing from the sweep's results")]))
    return Sample("sweep", start, end, ticks, lanes)


def _cli_exit_code(cli, argv: list) -> int:
    """The exit code ``neuroloop <argv>`` would give. An exception that escapes
    ``cli.main`` exits with 1, as the command would, and its traceback goes
    to stderr; the oracle counts the operation as failed."""
    try:
        return cli.main(argv)
    except Exception:
        traceback.print_exc()
        return 1


def cli_op(setup: Setup, i: int, workdir: Path) -> Sample:
    """Operation 2k: ``neuroloop run`` of lane k. Operation 2k+1: ``neuroloop replay`` of it."""
    seed = setup.lane_base + i // 2
    rundir = workdir / f"seed_{seed}"
    scenario_path = workdir / "scenario.json"
    if i % 2 == 0:
        if not scenario_path.exists():
            # The generated scenario the CLI reads; the seed is overridden per lane.
            workdir.mkdir(parents=True, exist_ok=True)
            scenario_path.write_text(json.dumps(setup.scenario.raw, indent=2), encoding="utf-8")
        argv = ["run", str(scenario_path), "--out", str(rundir), "--seed", str(seed)]
    else:
        argv = ["replay", str(rundir)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        rc = _cli_exit_code(setup.nl.cli, argv)
        end = time.perf_counter()
    ticks = setup.scenario.timebase.n_ticks
    if i % 2 == 0:
        setup.pending_run_rc = rc
        return Sample("run", start, end, ticks, [])
    lane = _rundir_lane(seed, rundir, setup.pending_run_rc, rc, out.getvalue())
    return Sample("replay", start, end, ticks, [lane])


def operation(workload: str):
    return cli_op if workload == CLI_WORKLOAD else sweep_op


def ops_for_lanes(workload: str, lanes: int) -> int:
    """Operations that complete exactly ``lanes`` lanes (rounded up to whole sweeps)."""
    return 2 * lanes if workload == CLI_WORKLOAD else -(-lanes // LANES)


def timed_loop(setup: Setup, seconds: float, workdir: Path, min_ops: int) -> list:
    """Closed loop, one client: run operations until ``seconds`` of measured
    time have passed, at least ``min_ops`` have run, every lane is complete
    and, when timing the CLI workload, at least ``MIN_CLI_CALLS`` calls ran.
    A SpeedProbe runs throughout."""
    op = operation(setup.workload)
    if setup.workload == CLI_WORKLOAD and seconds > 0:
        min_ops = max(min_ops, MIN_CLI_CALLS)
    lane_ops = ops_for_lanes(setup.workload, 1)
    samples: list = []
    measured = 0.0
    with SpeedProbe() as probe:
        while measured < seconds or len(samples) < min_ops or len(samples) % lane_ops:
            sample = op(setup, len(samples), workdir)
            samples.append(sample)
            measured += sample.end - sample.start
    for sample in samples:
        probe.settle(sample)
    return samples


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------

def load_pins() -> dict:
    try:
        return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


def reference_digests(setup: Setup, seed: int) -> dict:
    """Digests of a separate serial ``run_scenario`` of ``seed``."""
    result = setup.run_scenario(setup.scenario.with_seed(seed))
    return dict(zip(OUTPUT_FILES, (sha256(render(result)) for render in setup.render)))


def check_digests(setup: Setup, lanes: list) -> None:
    """Compare each lane with the pinned digests of its seed or, for seeds not
    pinned, with a serial run of that seed. Mismatches become problems."""
    pins = load_pins().get(setup.workload, {})
    op = lanes[0].ops[0] if lanes else "lane"
    for lane in lanes:
        expected = pins.get(str(lane.seed)) or reference_digests(setup, lane.seed)
        bad = [f for f in OUTPUT_FILES if lane.digests[f] != expected[f]]
        if bad:
            lane.problems.append((op, f"digest mismatch: {', '.join(bad)}"))


def check_traced(untraced: list, traced: list) -> None:
    """A traced lane must produce the same outputs as its untraced twin."""
    for a, b in zip(untraced, traced):
        if a.seed != b.seed or a.digests != b.digests:
            b.problems.append((b.ops[0], f"traced digests differ from untraced (seed {b.seed})"))


def pin_digests(pin_lanes: dict) -> dict:
    """Digests of the default base seed (0), from serial runs."""
    pins = {}
    for workload in WORKLOADS:
        setup = prepare(workload, 0)
        pins[workload] = {
            str(setup.lane_base + i): reference_digests(setup, setup.lane_base + i)
            for i in range(pin_lanes[workload])
        }
    return pins
