"""The benchmark's workloads: set-up, one timed pass, and output checks.

Every workload runs the orchestrated explframe AES attack on the CLI's
vulnerable machine (``repro.cli._vulnerable_config``: the small DRAM
geometry at 3.0 weak cells per row).  A workload is set up (untimed for
the pass, timed as ``setup_s``) and then runs *passes*: fixed units of
work whose outputs depend only on the seed, so every pass of a run must
produce the same host-free counter block.

* ``attack``  — one attack over a 2 MiB templating buffer, no tenants.
* ``tenants`` — one attack amid the ``apartment-8`` scenario, 768 KiB buffer.
* ``campaign`` — 50 forked attempts from one warm snapshot, in process.
* ``campaign-pool`` — the same 50 attempts through ``CampaignService``
  on two worker processes (ship mode), journaling to a fresh directory.
  It runs on demand; ``BENCHMARK.json`` does not gate it (README.md).

Passes are kept short (one to two seconds) so that a run holds fifteen
or more of them; ``host_sensitivity`` says how strongly a workload's
host time follows the host-speed kernel (``hostspeed.py``).

The two attack workloads run the machine, tenant traffic and attacker
randomness of CLI seed 7 and take only the victim's AES key from the
benchmark seed.  Templating time depends on the DIMM's weak-cell map and
on how tenant churn interleaves with the attacker's buffer, so a seed
that changed either would swamp the host-time signal with work that
differs from seed to seed.  The campaign workloads use the benchmark
seed as the machine seed, as ``repro attack --seed S --campaign 50``
does; their attempts are already re-keyed per attempt index.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HARDWARE_SEED = 7
CAMPAIGN_ATTEMPTS = 50
POOL_WORKERS = 2
DENSITY = 3.0


@dataclass
class PassResult:
    """What one timed pass produced."""

    wall_s: float
    attempts: int
    failed: int
    # Host latency of each attempt, where the pass can observe it.
    attempt_walls_s: list[float] = field(default_factory=list)
    # Host-free counters: must repeat exactly for the same seed.
    counters: dict = field(default_factory=dict)
    # Host-free per-layer counters reported by the traced run.
    layer: dict = field(default_factory=dict)
    # Output checks that failed (empty when every output is correct).
    errors: list[str] = field(default_factory=list)


def sha256_json(value) -> str:
    """SHA-256 of ``value``'s canonical JSON."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_attempts(attempt, indices, result: PassResult) -> list:
    """Run ``attempt(index)`` for each index, timing each one.

    An attempt that raises is counted as attempted and failed, never
    dropped; its slot in the returned list is ``None``.
    """
    outputs = []
    for index in indices:
        start = time.perf_counter()
        try:
            outputs.append(attempt(index))
        except Exception as exc:  # noqa: BLE001 - a raising attempt is a failure
            outputs.append(None)
            result.failed += 1
            result.errors.append(f"attempt {index} raised {type(exc).__name__}: {exc}")
        result.attempt_walls_s.append(time.perf_counter() - start)
        result.attempts += 1
    return outputs


def check_report(report, label: str, result: PassResult) -> None:
    """Count a report that did not recover its true key as failed."""
    if not report.success or report.recovered_key != report.true_key:
        result.failed += 1
        if report.success:
            result.errors.append(f"{label} claims success with a wrong key")


def _flat_stats(stats: dict) -> dict:
    """``Machine.stats()`` flattened to ``{"group.name": int}``."""
    return {
        f"{group}.{name}": value
        for group, values in stats.items()
        for name, value in values.items()
    }


def machine_layer_counters(stats: dict) -> dict:
    """Per-layer host-free counters from flattened machine statistics."""
    hits, misses = stats["cache.hits"], stats["cache.misses"]
    activations, row_hits = stats["dram.activations"], stats["dram.row_hits"]
    pcp_allocs = stats["allocator.pcp_allocs"]
    return {
        "dram.cache.hit_ratio": hits / max(1, hits + misses),
        "dram.activations": activations,
        "dram.row_hit_ratio": row_hits / max(1, row_hits + activations),
        "dram.flips": stats["dram.flips"],
        "sim.events.dispatched": stats["events.dispatched"],
        "mm.pcp_hit_ratio": stats["allocator.pcp_served_from_cache"] / max(1, pcp_allocs),
    }


def report_layer_counters(reports) -> dict:
    """Attack-stage counters from the orchestrator's reports."""
    steers = steered = candidates = ciphertexts = keys = 0
    for report in reports:
        for record in report.timeline:
            if record.stage == "steer":
                steers += 1
                steered += record.outcome == "ok"
        candidates += report.candidates_tried
        ciphertexts += report.faulty_ciphertexts
        keys += report.success
    return {
        "attack.steer.hit_ratio": steered / max(1, steers),
        "attack.candidates_per_key": candidates / max(1, keys),
        "pfa.ciphertexts_per_key": ciphertexts / max(1, keys),
    }


# -- single attacks -------------------------------------------------------------------


def _orchestrator_config():
    """``repro attack --orchestrate``'s policy at the CLI's default knobs."""
    from repro.attack.orchestrator import OrchestratorConfig, RetryPolicy
    from repro.sim.units import SECOND

    return OrchestratorConfig(
        deadline_ns=3600 * SECOND,
        campaign_budget=8,
        steer=RetryPolicy(max_attempts=4),
        rehammer=RetryPolicy(max_attempts=4, backoff_base_ns=20_000_000, backoff_factor=3.0),
        pfa=RetryPolicy(max_attempts=3, backoff_base_ns=1_000_000),
    )


def _attack_config(buffer_kib: int, cipher: str = "aes", cpu: int = 0):
    from repro.attack.registry import get_modality
    from repro.attack.templating import TemplatorConfig

    return get_modality("explframe").make_config(
        cipher=cipher,
        cpu=cpu,
        templator=TemplatorConfig(buffer_bytes=buffer_kib * 1024, batch_pairs=16),
        max_campaigns=4,
    )


class AttackWorkload:
    """One orchestrated attack per pass, each on a freshly built machine."""

    setup_per_pass = True  # an attack consumes its machine
    host_sensitivity = 1.0  # interpreter-bound: see hostspeed.HostClock

    def __init__(self, family: str, seed: int, buffer_kib: int, scenario: str | None = None):
        from repro.cli import _vulnerable_config

        self.family = family
        self.key = hashlib.sha256(f"hostbench/{seed}".encode()).digest()[:16]
        self.scenario = None
        cipher, cpu = "aes", 0
        if scenario is not None:
            from repro.workload import load_scenario

            self.scenario = _with_target_key(load_scenario(scenario), self.key)
            spec = self.scenario.target_spec
            cipher, cpu = spec.cipher, 0 if spec.cpu is None else spec.cpu
        self.machine_config = _vulnerable_config(HARDWARE_SEED, DENSITY)
        self.attack_config = _attack_config(buffer_kib, cipher, cpu)
        self.orchestrator_config = _orchestrator_config()

    def config_hash(self) -> str:
        knobs = (self.machine_config, self.attack_config, self.orchestrator_config,
                 self.scenario, self.key.hex())
        return hashlib.sha256(repr(knobs).encode("utf-8")).hexdigest()

    def setup(self):
        """Build the machine, start tenants, construct the attack."""
        from repro.attack.registry import get_modality
        from repro.core import Machine

        machine = Machine(self.machine_config)
        if self.scenario is None:
            workload, key = None, self.key
        else:
            from repro.workload import WorkloadEngine

            workload, key = WorkloadEngine(machine, self.scenario), None
            workload.start()
        attack = get_modality("explframe").build(
            machine, config=self.attack_config, key=key, tenant_workload=workload
        )
        return machine, workload, attack

    def fingerprint(self, state) -> str:
        """Host-free summary of a set-up, equal for every set-up of a run."""
        return repr(state[0].stats())

    def run_pass(self, state) -> PassResult:
        from repro.attack.orchestrator import AttackOrchestrator

        machine, workload, attack = state
        result = PassResult(wall_s=0.0, attempts=0, failed=0)
        start = time.perf_counter()
        (report,) = run_attempts(
            lambda _: AttackOrchestrator(attack, self.orchestrator_config).run(),
            [0], result,
        )
        result.wall_s = time.perf_counter() - start
        if report is None:
            return result
        check_report(report, "attack", result)
        stats = _flat_stats(machine.stats())
        result.counters = {
            "machine": stats,
            "sim_ns": machine.clock.now_ns,
            "report_sha256": hashlib.sha256(report.to_json().encode()).hexdigest(),
            "ciphertexts": report.faulty_ciphertexts,
            "forks": 0,
            "blob_bytes": 0,
        }
        result.layer = {**machine_layer_counters(stats), **report_layer_counters([report])}
        if workload is not None:
            summary = workload.summary()
            result.counters["workload"] = summary
            result.layer["workload.served"] = sum(t["served"] for t in summary.values())
            result.layer["workload.dropped"] = sum(t["dropped"] for t in summary.values())
        return result


# -- campaigns ------------------------------------------------------------------------


def _with_target_key(scenario, key: bytes):
    """``scenario`` with its target tenant's AES key fixed to ``key``."""
    import dataclasses

    tenants = tuple(
        dataclasses.replace(spec, key_hex=key.hex()) if spec.name == scenario.target else spec
        for spec in scenario.tenants
    )
    return dataclasses.replace(scenario, tenants=tenants)


def _prewarmed_campaign(seed: int, snapshot=None, workers: int = 1):
    """An ``AttackCampaign`` of the CLI's ``--campaign`` shape.

    With ``snapshot``, the campaign's warm step returns that snapshot, so
    the warm-up is paid (and timed) in set-up rather than in the pass.
    """
    from repro.attack.orchestrator import AttackCampaign, OrchestratorConfig
    from repro.cli import _vulnerable_config
    from repro.sim.units import SECOND

    class PrewarmedCampaign(AttackCampaign):
        def _warm_snapshot(self):
            return snapshot if snapshot is not None else super()._warm_snapshot()

    return PrewarmedCampaign(
        _vulnerable_config(seed, DENSITY),
        CAMPAIGN_ATTEMPTS,
        attack_config=_attack_config(2048),
        orchestrator_config=OrchestratorConfig(deadline_ns=3600 * SECOND),
        fork_from_template=True,
        workers=workers,
        pool_mode="ship",
    )


def _metric_total(merged: dict, family: str) -> int:
    """Sum of a merged metrics family over instances and attempts."""
    total = 0
    for value in merged["families"][family]["instances"].values():
        total += sum(value) if isinstance(value, list) else value
    return total


def _campaign_counters(warm: dict, blob_bytes: int, digest: str, merged: dict) -> dict:
    """The host-free block both campaign workloads must agree on."""
    # Each fork's clock starts at the warm machine's.
    attempt_sim_ns = _metric_total(merged, "sim.clock_ns") - CAMPAIGN_ATTEMPTS * warm["sim_ns"]
    return {
        "warm_machine": warm["stats"],
        "warm_sim_ns": warm["sim_ns"],
        "blob_bytes": blob_bytes,
        "forks": CAMPAIGN_ATTEMPTS,
        "digest": digest,
        "metrics_sha256": sha256_json(merged),
        "ciphertexts": _metric_total(merged, "attack.pfa.ciphertexts"),
        "attempt_sim_ns": attempt_sim_ns,
    }


class CampaignWorkload:
    """Forked attempts from a warm snapshot, run in this process."""

    family = "campaign"
    setup_per_pass = False  # every pass forks the same warm snapshot
    # Forks unpickle and PFA runs in numpy, so host slow-downs hit it less
    # (slope 0.6 against the kernel; README.md, "Host speed").
    host_sensitivity = 0.6

    def __init__(self, seed: int):
        self.seed = seed
        self.campaign = _prewarmed_campaign(seed)

    def config_hash(self) -> str:
        from repro.parallel.service import campaign_config_hash

        return campaign_config_hash(self.campaign)

    def setup(self):
        """Build, template and snapshot; also size the shipped blob."""
        machine, attack, candidates = self.campaign._warm()
        snapshot = machine.snapshot(extras={"attack": attack, "candidates": candidates})
        warm = {"stats": _flat_stats(machine.stats()), "sim_ns": machine.clock.now_ns}
        return snapshot, warm, len(snapshot.to_bytes())

    def fingerprint(self, state) -> str:
        """Host-free summary of a set-up, equal for every set-up of a run."""
        return repr(state[1:])

    def run_pass(self, state) -> PassResult:
        from repro.attack.orchestrator import CampaignResult
        from repro.obs.metrics import merge_metric_states

        snapshot, warm, blob_bytes = state
        campaign = self.campaign
        result = PassResult(wall_s=0.0, attempts=0, failed=0)

        def attempt(index):
            machine, extras = snapshot.fork()
            outcome = campaign._run_attempt(
                machine, extras["attack"], extras["candidates"], index
            )
            return outcome, machine.stats()

        start = time.perf_counter()
        outputs = run_attempts(attempt, range(CAMPAIGN_ATTEMPTS), result)
        result.wall_s = time.perf_counter() - start

        done = [output for output in outputs if output is not None]
        reports = [report for (report, _), _ in done]
        for index, report in enumerate(reports):
            check_report(report, f"attempt {index}", result)
        merged = merge_metric_states([state for (_, state), _ in done])
        digest = CampaignResult(reports=tuple(reports), mode="fork").digest()
        result.counters = _campaign_counters(warm, blob_bytes, digest, merged)
        totals = dict(warm["stats"])
        for _, stats in done:
            for key, value in _flat_stats(stats).items():
                totals[key] += value - warm["stats"][key]
        result.layer = {
            **machine_layer_counters(totals),
            **report_layer_counters(reports),
            "core.blob_bytes": blob_bytes,
        }
        return result


class CampaignPoolWorkload(CampaignWorkload):
    """The ``campaign`` attempts through the checkpointed service, 2 workers."""

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed)
        self.scratch = scratch

    def run_pass(self, state) -> PassResult:
        from repro.attack.orchestrator import AttackRunReport
        from repro.parallel.service import CampaignService, decode_line

        snapshot, warm, blob_bytes = state
        campaign = _prewarmed_campaign(self.seed, snapshot, workers=POOL_WORKERS)
        result = PassResult(wall_s=0.0, attempts=0, failed=0)
        self.scratch.mkdir(parents=True, exist_ok=True)
        directory = Path(tempfile.mkdtemp(prefix="checkpoint-", dir=self.scratch))
        try:
            start = time.perf_counter()
            try:
                service = CampaignService(campaign, directory).run()
            except Exception as exc:  # noqa: BLE001 - every attempt counts as failed
                result.attempts = result.failed = CAMPAIGN_ATTEMPTS
                result.errors.append(f"campaign service raised {type(exc).__name__}: {exc}")
                return result
            finally:
                result.wall_s = time.perf_counter() - start
                _join_children()
            result.attempts = service.attempts
            (journal,) = directory.glob("journal-*.jsonl")
            with open(journal, "rb") as fh:
                reports = [
                    AttackRunReport.from_dict(decode_line(line)["report"]) for line in fh
                ]
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        for report in reports:
            check_report(report, "pooled attempt", result)
        if len(reports) != service.attempts:
            result.errors.append(
                f"journal holds {len(reports)} reports for {service.attempts} attempts"
            )
        result.counters = _campaign_counters(
            warm, blob_bytes, service.digest(), service.metrics
        )
        busy_ns = sum(
            value for key, value in service.pool.items()
            if key.startswith("campaign.pool.worker_wall_ns")
        )
        result.layer = {
            **machine_layer_counters(warm["stats"]),
            **report_layer_counters(reports),
            "core.blob_bytes": blob_bytes,
            "parallel.worker_busy_frac": busy_ns / 1e9 / (POOL_WORKERS * result.wall_s),
            "parallel.journal_bytes": service.service["campaign.service.journal_bytes"],
        }
        return result


def _join_children(timeout_s: float = 60.0) -> None:
    """Wait for every worker process this process started to end."""
    deadline = time.monotonic() + timeout_s
    for child in multiprocessing.active_children():
        child.join(max(0.0, deadline - time.monotonic()))
        if child.is_alive():
            child.terminate()
            child.join(5.0)


WORKLOADS = ("attack", "campaign", "tenants", "campaign-pool")


def make_workload(name: str, seed: int, scratch: Path):
    """The workload called ``name`` for benchmark seed ``seed``."""
    if name == "attack":
        return AttackWorkload("attack", seed, buffer_kib=2048)
    if name == "tenants":
        return AttackWorkload("tenants", seed, buffer_kib=768, scenario="apartment-8")
    if name == "campaign":
        return CampaignWorkload(seed)
    if name == "campaign-pool":
        return CampaignPoolWorkload(seed, scratch)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
