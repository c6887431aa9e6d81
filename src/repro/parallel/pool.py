"""Worker-pool dispatch of campaign attempts and sweep points.

The contract (docs/CAMPAIGNS.md): parallel execution is an *engine*
choice, never a *result* choice.  Attempt ``i`` of a campaign always
runs on a machine re-keyed with ``derive_seed(base_seed, "campaign/i")``
from the same warm state, so the per-attempt reports — and therefore
:meth:`~repro.attack.orchestrator.CampaignResult.digest` — are
byte-identical whether the attempts run serially, on 2 workers or on
16, and regardless of completion order (reports are re-ordered by
attempt index before merging).

Every attempt forks one warm snapshot (built by the campaign's
:meth:`~repro.attack.orchestrator.AttackCampaign._warm_snapshot`), and
:func:`iter_campaign` is the only attempt driver.  With ``workers == 1``
it forks the snapshot in process (**serial**).  Otherwise the parent
pickles the snapshot once with
:meth:`~repro.core.machine.MachineSnapshot.to_bytes` and every worker
rehydrates it in its initializer (**ship**).  The CoW frame store
serialises compactly, and the rehydrated snapshot's forks share its
frames copy-on-write, so per-attempt fork cost in the worker is O(1) in
module size.

Per-worker telemetry cannot be deterministic (host wall time, pids), so
it lives in the result's ``pool`` block — outside both the digest and
the merged per-attempt ``metrics`` block.  The block's keys are the
``campaign.pool.*`` family documented in docs/OBSERVABILITY.md and
registered through :func:`register_pool_metrics` so the telemetry-docs
checker covers them.

Pooled dispatch is *bounded*: :func:`iter_campaign` keeps at most a
small window of attempts in flight and yields each outcome as it
completes, so a 10k-attempt campaign never holds 10k futures (or their
results) at once.
:meth:`~repro.attack.orchestrator.AttackCampaign.run` collects the
stream into an in-memory
:class:`~repro.attack.orchestrator.CampaignResult`; the checkpointed
campaign service (:mod:`repro.parallel.service`) journals and releases
each outcome instead.  A worker that dies mid-attempt (OOM kill,
segfault, SIGKILL) surfaces as a typed
:class:`~repro.sim.errors.WorkerLostError` naming the attempt whose
result was lost — never as a hang or an opaque ``BrokenProcessPool``
traceback.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, as_completed, wait
from concurrent.futures.process import BrokenProcessPool

from repro.obs.metrics import MetricsRegistry
from repro.sim.errors import WorkerLostError

__all__ = [
    "campaign_pool_block",
    "iter_campaign",
    "make_pool_block",
    "register_pool_metrics",
    "run_sweep",
]

# Per-worker-process state, populated by the pool initializer.  Workers
# run attempts strictly sequentially, so no locking is needed.
_STATE: dict = {}


def _context():
    """Prefer the fork start method (cheap COW of the warm parent)."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-posix platforms
        return multiprocessing.get_context()


# -- campaign.pool.* telemetry ----------------------------------------------------


def register_pool_metrics(registry, mode: str = "serial", workers_seen=(0,)):
    """Register the ``campaign.pool.*`` family on ``registry``.

    Returns the live handles; also the single source of truth the
    telemetry-docs checker uses to learn the family exists.
    """
    return {
        "workers": registry.gauge(
            "campaign.pool.workers", unit="processes",
            help="worker processes serving the campaign pool",
        ),
        "dispatched": registry.counter(
            "campaign.pool.attempts_dispatched", unit="attempts",
            help="attempts submitted to the pool",
        ),
        "completed": registry.counter(
            "campaign.pool.attempts_completed", unit="attempts",
            help="attempts whose reports were collected",
        ),
        "mode": registry.gauge(
            "campaign.pool.mode", labels={"mode": mode}, unit="flag",
            help="how warm state reached the workers: serial or ship",
        ),
        "worker_wall": {
            worker: registry.gauge(
                "campaign.pool.worker_wall_ns",
                labels={"worker": str(worker)}, unit="ns",
                help="host wall time each worker spent inside attempts",
            )
            for worker in workers_seen
        },
    }


def make_pool_block(
    *, workers: int, mode: str, dispatched: int, completed: int, worker_wall_ns: dict
) -> dict:
    """The ``pool`` result block: a snapshot of the campaign.pool.* family.

    ``worker_wall_ns`` maps stable worker indices (0..N-1) to summed
    host-nanosecond attempt time.  The block is informational — host
    wall times and worker partitioning are not deterministic — and is
    therefore excluded from the campaign digest.
    """
    registry = MetricsRegistry(enabled=True)
    handles = register_pool_metrics(
        registry, mode=mode, workers_seen=sorted(worker_wall_ns)
    )
    handles["workers"].set(workers)
    handles["dispatched"].inc(dispatched)
    handles["completed"].inc(completed)
    handles["mode"].set(1)
    for worker, wall_ns in worker_wall_ns.items():
        handles["worker_wall"][worker].set(wall_ns)
    return registry.snapshot()


def campaign_pool_block(
    campaign, attempts: int, *, dispatched: int, completed: int, wall_by_pid: dict
) -> dict:
    """The ``pool`` block of a run of ``campaign`` covering ``attempts`` attempts.

    ``wall_by_pid`` maps each process that ran attempts to its summed
    host nanoseconds; processes are numbered 0..N-1 in pid order.
    """
    return make_pool_block(
        workers=min(campaign.workers, max(1, attempts)),
        mode="serial" if campaign.workers == 1 else "ship",
        dispatched=dispatched,
        completed=completed,
        worker_wall_ns={
            worker: wall_by_pid[pid] for worker, pid in enumerate(sorted(wall_by_pid))
        },
    )


# -- campaign dispatch -------------------------------------------------------------


def _campaign_init(campaign, snapshot_blob) -> None:
    """Pool initializer: rehydrate the shipped warm snapshot in this worker."""
    from repro.core.machine import MachineSnapshot

    _STATE["campaign"] = campaign
    _STATE["snapshot"] = MachineSnapshot.from_bytes(snapshot_blob)


def _fork_attempt(campaign, snapshot, index: int):
    """Run attempt ``index`` on a fork of ``snapshot``; the unit of work."""
    start = time.perf_counter_ns()
    machine, extras = snapshot.fork()
    report, metrics_state = campaign._run_attempt(
        machine, extras["attack"], extras["candidates"], index
    )
    wall_ns = time.perf_counter_ns() - start
    return index, report, metrics_state, os.getpid(), wall_ns


def _campaign_attempt(index: int):
    """Pool task: one attempt on this worker's rehydrated snapshot."""
    return _fork_attempt(_STATE["campaign"], _STATE["snapshot"], index)


def iter_campaign(campaign, indices, *, window: int = 0, snapshot=None, snapshot_blob=None):
    """Yield ``(index, report, metrics_state, pid, wall_ns)`` as attempts finish.

    The one attempt driver.  With ``campaign.workers == 1`` each attempt
    runs in this process on a fork of the warm snapshot, in ``indices``
    order.  Otherwise at most ``window`` attempts (default
    ``2 * workers``) are in flight on a process pool, and each outcome
    is yielded — and released — as soon as its future completes, so
    memory stays bounded by the window, not the campaign size.  Pooled
    yield order is completion order; callers that need attempt order
    (the digest does) re-order or journal by the yielded ``index``.

    A caller that already holds the warm ``snapshot`` passes it in, and
    may add its pickled ``snapshot_blob`` (the campaign service re-uses
    one across worker-loss pool rebuilds); the pool ships the blob,
    pickling ``snapshot`` when none is given.  Without either, the
    campaign warms here through its ``_warm_snapshot``.

    Raises :class:`~repro.sim.errors.WorkerLostError` (carrying the
    attempt index whose result was lost) when a worker process dies —
    the ``BrokenProcessPool`` poisons every in-flight future, so the
    caller must assume only the attempts already yielded are done.
    """
    indices = list(indices)
    if not indices:
        return
    if campaign.workers == 1:
        if snapshot is None:
            snapshot = campaign._warm_snapshot()
        for index in indices:
            yield _fork_attempt(campaign, snapshot, index)
        return
    if snapshot_blob is None:
        if snapshot is None:
            snapshot = campaign._warm_snapshot()
        snapshot_blob = snapshot.to_bytes()
    workers = min(campaign.workers, len(indices))
    window = window if window > 0 else 2 * workers
    remaining = iter(indices)
    pending: dict = {}
    pool = ProcessPoolExecutor(
        max_workers=workers,
        mp_context=_context(),
        initializer=_campaign_init,
        initargs=(campaign, snapshot_blob),
    )
    try:
        def top_up():
            while len(pending) < window:
                try:
                    index = next(remaining)
                except StopIteration:
                    return
                try:
                    pending[pool.submit(_campaign_attempt, index)] = index
                except BrokenProcessPool as exc:
                    raise WorkerLostError(
                        f"worker pool broke before attempt {index} could be "
                        "submitted", attempt=index,
                    ) from exc

        top_up()
        while pending:
            done, _ = wait(set(pending), return_when=FIRST_COMPLETED)
            for future in done:
                index = pending.pop(future)
                try:
                    yield future.result()
                except BrokenProcessPool as exc:
                    raise WorkerLostError(
                        f"worker process died while attempt {index} was in "
                        "flight", attempt=index,
                    ) from exc
            top_up()
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


# -- sweep dispatch ----------------------------------------------------------------


def _sweep_init(sweep, trials) -> None:
    _STATE["sweep"] = sweep
    _STATE["trials"] = trials


def _sweep_point(index: int, parameter):
    point = _STATE["sweep"].run_point(parameter, _STATE["trials"])
    return index, point


def run_sweep(sweep, parameters: list, trials: int) -> list:
    """Run one grid point per pool task; results ordered like the grid.

    The sweep object (including ``trial_fn``/``warm_fn``) and every
    trial outcome cross process boundaries, so with a non-fork start
    method they must be picklable — module-level functions and plain
    data, not lambdas or machine handles.
    """
    workers = min(sweep.workers, len(parameters)) or 1
    points: list = [None] * len(parameters)
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=_context(),
        initializer=_sweep_init,
        initargs=(sweep, trials),
    ) as pool:
        futures = {
            pool.submit(_sweep_point, index, parameter): index
            for index, parameter in enumerate(parameters)
        }
        for future in as_completed(futures):
            index, point = future.result()
            points[index] = point
    return points
