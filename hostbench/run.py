"""The repository's benchmark: host time of the simulator, end to end and per layer.

Run from the repository root::

    python3 hostbench/run.py --workload attack --seed 1 --seconds 30 --trace 0

``--trace 0`` runs an untimed warm-up, sets the workload up several
times, runs timed passes for ``--seconds`` and prints the end-to-end
metrics: medians of set-ups and passes in reference seconds, host time
scaled by a host-speed kernel timed around each (``hostspeed.py``).
``--trace 1`` runs one untraced set-up plus pass, then the same again
with every layer's public entry points wrapped (see ``spans.py``), and
prints per-layer host time (``F.calls`` and ``F.self_s``) with the
layers' host-free counters.
Both modes check every attack's outputs and print, as the last line of
standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it carries
provenance, sample counts and the host-free counter block; the full
record is also written to ``hostbench/out/``.  See ``hostbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Timed set-ups before the timed passes; workloads whose pass consumes
# its state also set up again before every further pass.
SETUP_REPEATS = 3
PERCENTILES = (50, 90, 95, 99, 99.9)

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "attempts_per_s": "1/s",
    "peak_rss_mib": "MiB",
}

# (metric name, module, class, attribute): the layer entry points the
# traced run wraps.  A name may wrap several classes (both mappings).
TRACE_TARGETS = (
    ("kernel.mem_read", "repro.os.kernel", "Kernel", "mem_read"),
    ("kernel.mem_write", "repro.os.kernel", "Kernel", "mem_write"),
    ("kernel.sys_hammer", "repro.os.kernel", "Kernel", "sys_hammer"),
    ("kernel.sys_mmap", "repro.os.kernel", "Kernel", "sys_mmap"),
    ("kernel.sys_munmap", "repro.os.kernel", "Kernel", "sys_munmap"),
    ("dram.cache.access", "repro.dram.cache", "CpuCache", "access"),
    ("dram.mapping.to_dram", "repro.dram.mapping", "LinearMapping", "to_dram"),
    ("dram.mapping.to_dram", "repro.dram.mapping", "XorBankMapping", "to_dram"),
    ("dram.controller.access", "repro.dram.controller", "MemoryController", "access"),
    ("dram.controller.hammer", "repro.dram.controller", "MemoryController", "hammer"),
    ("sim.events.dispatch_due", "repro.sim.events", "EventScheduler", "dispatch_due"),
    ("mm.alloc_pages", "repro.mm.allocator", "ZonedPageFrameAllocator", "alloc_pages"),
    ("mm.free_pages", "repro.mm.allocator", "ZonedPageFrameAllocator", "free_pages"),
    ("core.build", "repro.core.machine", "Machine", "__init__"),
    ("core.snapshot", "repro.core.machine", "Machine", "snapshot"),
    ("core.fork", "repro.core.machine", "MachineSnapshot", "fork"),
    ("core.to_bytes", "repro.core.machine", "MachineSnapshot", "to_bytes"),
    ("attack.orchestrate", "repro.attack.orchestrator", "AttackOrchestrator", "run"),
    ("attack.template", "repro.attack.explframe", "ExplFrameAttack",
     "run_templating_campaign"),
    ("attack.steer", "repro.attack.explframe", "ExplFrameAttack", "stage_and_steer"),
    ("attack.rehammer", "repro.attack.explframe", "ExplFrameAttack", "rehammer"),
    ("attack.pfa", "repro.attack.explframe", "ExplFrameAttack", "run_fault_analysis"),
)

# Host-free per-layer counters (from workloads.PassResult.layer); a
# workload that does not exercise a layer reports 0.
LAYER_COUNTERS = {
    "dram.cache.hit_ratio": "ratio",
    "dram.activations": "count",
    "dram.row_hit_ratio": "ratio",
    "dram.flips": "count",
    "sim.events.dispatched": "count",
    "mm.pcp_hit_ratio": "ratio",
    "core.blob_bytes": "B",
    "attack.steer.hit_ratio": "ratio",
    "attack.candidates_per_key": "count",
    "pfa.ciphertexts_per_key": "count",
    "workload.served": "count",
    "workload.dropped": "count",
    "parallel.worker_busy_frac": "ratio",
    "parallel.journal_bytes": "B",
}


def span_names() -> list[str]:
    """Every traced span name, in table order, without repeats."""
    return list(dict.fromkeys(name for name, *_ in TRACE_TARGETS))


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units["core.fork.p50_ms"] = "ms"
    units["core.fork.p95_ms"] = "ms"
    units.update(LAYER_COUNTERS)
    units["unattributed_s"] = "s"
    units["traced_wall_s"] = "s"
    units["trace_overhead_frac"] = "ratio"
    return units


# -- statistics ---------------------------------------------------------------------


def percentile(values, q: float) -> tuple[float, int]:
    """Nearest-rank ``q``-th percentile of ``values`` and the sample count."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered)


def tail_percentiles(values) -> list[float]:
    """Those of PERCENTILES above the median with ten samples beyond them."""
    return [
        q for q in PERCENTILES[1:]
        if len(values) - max(1, math.ceil(q / 100 * len(values))) >= 10
    ]


def peak_rss_mib() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


# -- the two kinds of run -----------------------------------------------------------


def measure(workload, seconds: float) -> dict:
    """Set up SETUP_REPEATS times, then run timed passes for ``seconds``.

    Every set-up and pass is bracketed by runs of the host-speed kernel
    and reported in reference seconds (``hostspeed.py``).
    """
    from hostspeed import HostClock

    setups, setups_host, passes_ref, errors = [], [], [], []
    # A warm-up set-up and pass, untimed: it fills lazy imports and caches,
    # and gives the peak RSS before the host-speed kernel has run.
    state = workload.setup()
    fingerprints = {workload.fingerprint(state)}
    passes = [workload.run_pass(state)]
    rss = peak_rss_mib()
    clock = HostClock(workload.host_sensitivity)

    def set_up():
        nonlocal state
        state = None  # release the previous state before building the next
        start = time.perf_counter()
        state = workload.setup()
        setups_host.append(time.perf_counter() - start)
        setups.append(clock.segment(setups_host[-1]))
        fingerprints.add(workload.fingerprint(state))

    for _ in range(SETUP_REPEATS):
        set_up()
    phase_start = time.perf_counter()
    while not passes_ref or time.perf_counter() - phase_start < seconds:
        if workload.setup_per_pass and passes_ref:
            set_up()
        passes.append(workload.run_pass(state))
        passes_ref.append(clock.segment(passes[-1].wall_s))
    state = None
    if len(fingerprints) > 1:
        errors.append("set-up is not deterministic: the set-up state differs")
    walls = [result.wall_s for result in passes[1:]]
    attempts = sum(result.attempts for result in passes)
    attempt_walls = [wall for result in passes[1:] for wall in result.attempt_walls_s]
    for index, result in enumerate(passes):
        errors.extend(result.errors)
        if result.counters != passes[0].counters:
            errors.append(f"pass {index} counters differ from pass 0")
    pass_s = statistics.median(passes_ref)
    return {
        "metrics": {
            "setup_s": statistics.median(setups),
            "pass_s": pass_s,
            "attempts_per_s": passes[0].attempts / pass_s,
            "peak_rss_mib": rss,
        },
        "attempted": attempts,
        "failed": sum(result.failed for result in passes),
        "counters": passes[0].counters,
        "errors": errors,
        "detail": {
            "setup_samples_s": setups,
            "setup_host_samples_s": setups_host,
            "pass_samples_s": passes_ref,
            "pass_host_samples_s": walls,
            "pass_host_median_s": statistics.median(walls),
            "pass_host_best_s": min(walls),
            "kernel_samples_s": clock.kernel_samples_s,
            "attempts_per_host_s_all_passes": (attempts - passes[0].attempts) / sum(walls),
            "attempt_latency": _latency_block(attempt_walls),
        },
    }


def _latency_block(walls_s) -> dict:
    """Attempt latency in ms: the median, tail percentiles and the sample count."""
    block = {"n": len(walls_s)}
    for q in [50, *tail_percentiles(walls_s)] if walls_s else []:
        block[f"p{q:g}_ms"] = percentile(walls_s, q)[0] * 1e3
    return block


def trace_targets():
    """Resolve TRACE_TARGETS to ``(name, class, attribute)`` triples."""
    import importlib

    return [
        (name, getattr(importlib.import_module(module), cls), attribute)
        for name, module, cls, attribute in TRACE_TARGETS
    ]


def traced(workload, spans_path: Path | None = None) -> dict:
    """One untraced and one traced set-up plus pass; per-layer figures."""
    from spans import SpanRecorder, layer_times, top_level_ns

    start = time.perf_counter()
    plain = workload.run_pass(workload.setup())
    untraced_wall = time.perf_counter() - start

    recorder = SpanRecorder()
    with recorder.installed(trace_targets()):
        start = time.perf_counter()
        result = workload.run_pass(workload.setup())
        traced_wall = time.perf_counter() - start
    spans = recorder.arrays()
    if spans_path is not None:
        recorder.save(spans_path)

    errors = plain.errors + result.errors
    if plain.counters != result.counters:
        errors.append("traced run's counters differ from the untraced run's")
    times = layer_times(recorder.names, spans)
    metrics = {}
    self_total = 0.0
    for name in span_names():
        row = times.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls"] = row["calls"]
        metrics[f"{name}.self_s"] = row["self_s"]
        self_total += row["self_s"]
    fork_ms = (recorder.durations_ns("core.fork") / 1e6).tolist()
    metrics["core.fork.p50_ms"] = percentile(fork_ms, 50)[0] if fork_ms else 0.0
    metrics["core.fork.p95_ms"] = percentile(fork_ms, 95)[0] if fork_ms else 0.0
    for name in LAYER_COUNTERS:
        metrics[name] = result.layer.get(name, 0)
    unattributed = traced_wall - top_level_ns(spans) / 1e9
    if abs(self_total + unattributed - traced_wall) > 1e-6 * max(1.0, traced_wall):
        errors.append("per-layer self times plus unattributed do not sum to the wall")
    metrics["unattributed_s"] = unattributed
    metrics["traced_wall_s"] = traced_wall
    metrics["trace_overhead_frac"] = traced_wall / untraced_wall - 1
    return {
        "metrics": metrics,
        "attempted": plain.attempts + result.attempts,
        "failed": plain.failed + result.failed,
        "counters": result.counters,
        "errors": errors,
        "detail": {
            "untraced_wall_s": untraced_wall,
            "spans": len(recorder),
            "fork_samples": len(fork_ms),
        },
    }


# -- provenance and cross-run checks ------------------------------------------------


def _git(*args) -> str | None:
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(workload, args) -> dict:
    """Where a result came from; kept outside the metrics."""
    import numpy

    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode())
        source.update(path.read_bytes())
    sha = dirty = None
    if (ROOT / ".git").exists():
        sha = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "source_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config_sha256": workload.config_hash(),
    }


def check_repeat(path: Path, counters: dict) -> str | None:
    """Compare ``counters`` with an earlier run's for the same family and seed.

    The first run records them; later runs (traced or not, and either
    campaign workload) must match exactly.
    """
    if path.exists():
        if json.loads(path.read_text()) != json.loads(json.dumps(counters)):
            return f"host-free counters differ from the earlier run recorded in {path.name}"
        return None
    path.write_text(json.dumps(counters, sort_keys=True))
    return None


# -- entry point --------------------------------------------------------------------


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: simulator sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import make_workload

    args = parse_args(argv)
    OUT.mkdir(exist_ok=True)
    workload = make_workload(args.workload, args.seed, OUT / "tmp")
    if args.trace:
        run = traced(workload, OUT / f"{args.workload}.spans.npz")
        units = per_layer_units()
    else:
        run = measure(workload, args.seconds)
        units = END_TO_END
    mismatch = check_repeat(
        OUT / f"{workload.family}-seed{args.seed}.counters.json", run["counters"]
    )
    if mismatch:
        run["errors"].append(mismatch)
    record = {
        "provenance": provenance(workload, args),
        "detail": run["detail"],
        "errors": run["errors"],
        "counters": run["counters"],
    }
    result = {
        "correct": not run["errors"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            name: {"value": run["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "result": result}, indent=1, sort_keys=True)
    )
    for error in run["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
