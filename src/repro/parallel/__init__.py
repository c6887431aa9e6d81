"""Multiprocess execution backends for campaigns and sweeps.

:mod:`repro.parallel.pool` holds the one campaign attempt driver (in
process or on a worker pool; one-shot, in-memory);
:mod:`repro.parallel.service` is the checkpointed campaign service built
on top of it (resumable, shardable, streaming).  Both
implement the execution contract in ``docs/CAMPAIGNS.md``.
"""

from repro.parallel.pool import (
    campaign_pool_block,
    iter_campaign,
    make_pool_block,
    register_pool_metrics,
    run_sweep,
)
from repro.parallel.service import (
    CampaignService,
    Shard,
    campaign_config_hash,
    make_service_block,
    merge_shards,
    register_service_metrics,
)

__all__ = [
    "CampaignService",
    "Shard",
    "campaign_config_hash",
    "campaign_pool_block",
    "iter_campaign",
    "make_pool_block",
    "make_service_block",
    "merge_shards",
    "register_pool_metrics",
    "register_service_metrics",
    "run_sweep",
]
