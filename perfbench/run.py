"""neuroloop benchmark: seed sweeps and CLI run/replay, timed end to end, traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_rns --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 10        # every workload
    python3 perfbench/run.py --workload sweep_adbs --trace 1      # per-layer spans
    python3 perfbench/run.py --workload run_replay_ecap --check   # untimed check
    python3 perfbench/run.py --pin                                 # rewrite digests.json

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record
(provenance, simulated counts, per-lane digests) is written to
``perfbench/out/``. See perfbench/README.md.
"""

from __future__ import annotations

import os

# One thread: no numpy backend may start a pool. Set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

import workloads as wl
from tracer import NAMES, Tracer

OUT_DIR = wl.HERE / "out"
SETUP_REPS = 7
PIN_LANES = {"sweep_rns": 48, "sweep_adbs": 48, "run_replay_ecap": 96}
CHILD_TIMEOUT_S = 170


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def git_commit() -> str | None:
    if not (wl.ROOT / ".git").exists():   # a plain checkout; do not report an enclosing repo
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=wl.ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(setup: wl.Setup, seed: int, loadavg: tuple) -> dict:
    import numpy
    return {
        "neuroloop": setup.nl.package.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "base_seed": seed,
        "first_lane_seed": setup.lane_base,
        "loadavg_start": list(loadavg),
        "platform": platform.platform(),
    }


def measure_setup(workload: str, seed: int) -> list:
    """(wall seconds from starting a fresh interpreter to a prepared workload,
    speed scale) for each of SETUP_REPS set-ups."""
    argv = [sys.executable, str(wl.HERE / "setup_probe.py"), workload, str(seed)]
    times, refs = [], [wl.reference_seconds()]
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
            ready = proc.stdout.readline()   # the probe prints "ready" once set up
            times.append(time.perf_counter() - start)
            try:
                _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        if proc.returncode != 0 or ready.strip() != "ready":
            raise wl.BenchError(f"set-up failed: {err.strip()}")
        refs.append(wl.reference_seconds())
    return [(t, wl.speed_scale([a, b])) for t, a, b in zip(times, refs, refs[1:])]


def lanes_of(samples: list) -> list:
    return [lane for s in samples for lane in s.lanes]


def end_to_end(samples: list, setup_times: list, rss_mib: float) -> tuple[dict, dict]:
    """Timings are wall times scaled to the reference speed (workloads.SpeedProbe);
    the unscaled figures go into the record."""
    op_ms = [s.seconds * s.scale * 1e3 for s in samples]
    wall_ms = [s.seconds * 1e3 for s in samples]
    metrics = {
        "us_per_tick": metric(wl.us_per_tick(samples), "us"),
        "op_ms_p50": metric(median(op_ms), "ms"),
        "op_ms_p90": metric(p90(op_ms), "ms"),
        "setup_s": metric(median(t * scale for t, scale in setup_times), "s"),
        "peak_rss_mb": metric(rss_mib, "MiB"),
    }
    detail = {
        "operations_timed": len(samples),
        "operations_beyond_p90": sum(v > metrics["op_ms_p90"]["value"] for v in op_ms),
        "ticks_timed": sum(s.ticks for s in samples),
        "wall_seconds_timed": sum(wall_ms) / 1e3,
        "wall_us_per_tick": wl.us_per_tick(samples, scaled=False),
        "wall_op_ms_p50": median(wall_ms),
        "wall_op_ms_p90": p90(wall_ms),
        "wall_setup_s": median(t for t, _ in setup_times),
        "setup_s_samples": setup_times,
        "op_ms_p50_by_kind": {
            kind: median(v for s, v in zip(samples, op_ms) if s.kind == kind)
            for kind in dict.fromkeys(s.kind for s in samples)
        },
        "per_op": [
            {"kind": s.kind, "wall_s": s.seconds, "ticks": s.ticks, "scale": s.scale,
             "probe_samples": len(s.refs)}
            for s in samples
        ],
    }
    return metrics, detail


def per_layer(tracer: Tracer, untraced: list, traced: list, workdir) -> dict:
    ticks = sum(s.ticks for s in traced)
    self_ns, calls = tracer.self_time()
    metrics = {}
    for i, name in enumerate(NAMES):
        metrics[f"{name}.ns_per_tick"] = metric(float(self_ns[i]) / ticks, "ns/tick")
        metrics[f"{name}.calls"] = metric(int(calls[i]), "count")
    engine_self = sum(
        float(self_ns[NAMES.index(n)]) for n in ("engine.run_scenario", "engine.sweep")
    )
    metrics["engine.self.ns_per_tick"] = metric(engine_self / ticks, "ns/tick")
    written = sum(p.stat().st_size for p in workdir.glob("seed_*/*"))
    metrics["outputs.bytes_written"] = metric(written, "B")
    overhead = wl.us_per_tick(traced) - wl.us_per_tick(untraced)
    metrics["trace.overhead_us_per_tick"] = metric(overhead, "us")
    return metrics


def run_workload(args) -> int:
    loadavg = os.getloadavg()
    timing = not args.check
    try:
        setup_times = measure_setup(args.workload, args.seed) if timing and not args.trace else []
        setup = wl.prepare(args.workload, args.seed)
    except wl.BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
    # A directory of this process's own, so runs that share a checkout never
    # write into or delete each other's run directories.
    work = Path(tempfile.mkdtemp(prefix=f"work-{tag}-", dir=OUT_DIR))
    seconds = args.seconds if timing else 0
    if args.trace:
        min_ops = wl.ops_for_lanes(args.workload, wl.TRACE_LANES)
    else:
        min_ops = 2 if timing else 1   # a p90 needs two samples
    try:
        samples = wl.timed_loop(setup, seconds, work / "untraced", min_ops)
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024   # KiB on Linux
        lanes = lanes_of(samples)
        wl.check_digests(setup, lanes)

        record: dict = {"workload": args.workload, "provenance": provenance(setup, args.seed, loadavg)}
        if args.trace:
            n_ops = min_ops
            tracer = Tracer()
            tracer.install()
            try:
                traced = wl.timed_loop(setup, 0, work / "traced", n_ops)
            finally:
                tracer.uninstall()
            traced_lanes = lanes_of(traced)
            wl.check_traced(lanes, traced_lanes)
            lanes += traced_lanes
            metrics = per_layer(tracer, samples, traced, work / "traced")
            spans_path = OUT_DIR / f"spans-{args.workload}.npz"
            tracer.save(spans_path)
            record["trace"] = {
                "spans_file": str(spans_path.relative_to(wl.ROOT)),
                "spans": len(tracer.spans) // 4,
                "untraced_us_per_tick": wl.us_per_tick(samples),
                "traced_us_per_tick": wl.us_per_tick(traced),
            }
        elif timing:
            metrics, record["timing"] = end_to_end(samples, setup_times, rss_mib)
        else:
            metrics = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(lane.ops) for lane in lanes)
    failed = sum(lane.failed_ops() for lane in lanes)
    record.update(
        attempted=attempted,
        failed=failed,
        fail_frac=failed / attempted,
        sim_counts_first_lanes=wl.sum_counts(lanes[: wl.TRACE_LANES]),
        metrics=metrics,
        lanes=[lane.to_dict() for lane in lanes],
    )
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {args.workload}  base seed {args.seed}  trace {int(args.trace)}")
    for name, m in metrics.items():
        if not args.trace or m["value"]:
            print(f"  {name:<52} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_frac':<52} {failed / attempted:>14.6g} ({failed} of {attempted} operations)")
    for lane in lanes:
        for problem in lane.to_dict()["problems"]:
            print(f"  FAILED seed {lane.seed}: {problem}")
    if "timing" in record:
        t = record["timing"]
        print(f"  samples: {t['operations_timed']} operations ({t['operations_beyond_p90']} "
              f"beyond p90), {t['ticks_timed']} ticks, {len(t['setup_s_samples'])} set-ups")
        print(f"  unscaled wall: {t['wall_us_per_tick']:.6g} us/tick, op p50 "
              f"{t['wall_op_ms_p50']:.6g} ms, op p90 {t['wall_op_ms_p90']:.6g} ms, "
              f"setup {t['wall_setup_s']:.6g} s")
    print(f"  record: {(OUT_DIR / f'result-{tag}.json').relative_to(wl.ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if args.check and failed else 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in wl.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(int(args.trace))]
        if args.check:
            argv.append("--check")
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = m
    print(json.dumps(combined))
    return 1 if args.check and not combined["correct"] else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=wl.WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0, help="base seed (>= 0); 0 is pinned in digests.json")
    p.add_argument("--seconds", type=float, default=10.0, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report per-layer metrics from a traced re-run of the first lanes")
    p.add_argument("--check", action="store_true", help="untimed: the first lane(s) only, oracle only")
    p.add_argument("--pin", action="store_true", help="rewrite digests.json for base seed 0")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    OUT_DIR.mkdir(exist_ok=True)
    if args.pin:
        try:
            pins = wl.pin_digests(PIN_LANES)
        except wl.BenchError as e:
            print(f"perfbench: {e}", file=sys.stderr)
            return 2
        wl.DIGESTS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n",
                                   encoding="utf-8")
        print(f"wrote {wl.DIGESTS_PATH.relative_to(wl.ROOT)}")
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
