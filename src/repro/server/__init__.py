"""Design server: a multi-session front end over the coupled framework.

The paper's Section 3.1 premise is many designers working concurrently
against one coupled framework; everything below this package is still
library-style and in-process.  ``repro.server`` adds the served layer:

* :mod:`repro.server.shards` — consistent-hash shard map over library
  names; independent teams land on independent shards;
* :mod:`repro.server.admission` — bounded per-shard queues and
  token-bucket admission (typed fail-fast rejection, never collapse);
* :mod:`repro.server.coalescer` — batch windows that flush one
  ``run_many`` wave per shard: self-clocked on completions when
  threaded, size- and deadline-bounded under the deterministic
  conductor;
* :mod:`repro.server.leases` — per-(library, cell) checkout leases with
  heartbeat renewal and fencing tokens (zombie sessions cannot clobber
  their successors);
* :mod:`repro.server.health` — per-shard circuit breakers fencing a
  wedged shard while healthy shards keep serving;
* :mod:`repro.server.engine` — :class:`ServeEngine`, the transport-free
  core multiplexing sessions onto shards (deterministic conductor mode
  for byte-identical replays, threaded mode for wall-clock serving);
* :mod:`repro.server.protocol` — the line-delimited JSON wire format
  and the named-script catalog;
* :mod:`repro.server.design_server` — :class:`DesignServer`, the
  asyncio streams front end (``repro serve``).
"""

from repro.server.admission import AdmissionController, TokenBucket
from repro.server.coalescer import ShardBatcher
from repro.server.engine import PendingRun, ServeEngine, SessionContext
from repro.server.health import CircuitBreaker
from repro.server.leases import Lease, LeaseTable, lease_key
from repro.server.protocol import ScriptCatalog, decode_line, encode_frame
from repro.server.shards import ShardMap

__all__ = [
    "AdmissionController",
    "TokenBucket",
    "ShardBatcher",
    "PendingRun",
    "ServeEngine",
    "SessionContext",
    "CircuitBreaker",
    "Lease",
    "LeaseTable",
    "lease_key",
    "ScriptCatalog",
    "decode_line",
    "encode_frame",
    "ShardMap",
    "DesignServer",
]


def __getattr__(name):
    # DesignServer pulls in asyncio; import lazily so the deterministic
    # engine path stays import-light for the benchmarks.
    if name == "DesignServer":
        from repro.server.design_server import DesignServer

        return DesignServer
    raise AttributeError(name)
