"""Campaign-as-a-service: a crash-surviving scheduler for scenario grids.

The batch CLI (``repro campaign``) runs one grid and exits; this
package keeps a pool of **persistent** worker processes warm and
schedules any number of submitted grids onto them.  An asyncio
scheduler shards each grid into work units and runs them on the shared
:class:`~repro.experiments.pool.WorkerPool` (workers keep their
memoization caches and warm per-topology simulation states across
units *and* campaigns).  A unit whose worker dies, or that makes no
progress within the stall deadline, is resubmitted under a retry
budget; every finished scenario is journaled to per-worker **shard
journals** in the campaign's state directory.  The shards merge through the exact same
last-write-wins fold as the batch engine (``repro campaign --report
<campaign dir>``), so a grid that survived worker SIGKILLs and full
service restarts renders artifacts byte-identical to an uninterrupted
batch run.

Entry points: ``repro serve`` runs the service; ``repro submit`` /
``status`` / ``result`` talk to it over the small HTTP API
(:mod:`repro.service.httpapi`, stdlib-only).
"""

from .scheduler import CampaignService, CampaignState, WorkUnit
from .spec import DEFAULT_SHARD_SIZE, CampaignSpec
from .client import ServiceClient, ServiceError

__all__ = [
    "CampaignService",
    "CampaignSpec",
    "CampaignState",
    "DEFAULT_SHARD_SIZE",
    "ServiceClient",
    "ServiceError",
    "WorkUnit",
]
