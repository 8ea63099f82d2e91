"""The live tier: a continuously-running protocol population.

The paper's protocols are designed to run forever -- equilibria are
stationary properties of a never-halting population -- yet the agent,
round and batch tiers all execute finite runs.  This package promotes
a :class:`~repro.runtime.round_engine.RoundEngine` to a long-lived
*service*:

* :mod:`~repro.service.clock` -- wall and virtual clocks; every tier-1
  test of the service runs on the virtual clock, wall-clock-free;
* :mod:`~repro.service.live` -- :class:`LiveEngine`, one continuously
  advancing population with snapshot/restore;
* :mod:`~repro.service.core` -- :class:`ServiceCore`, the deterministic
  (synchronous) heart: event log, queries, checkpoints;
* :mod:`~repro.service.service` -- :class:`ProtocolService`, the
  asyncio shell: tick loop, concurrent clients, TCP endpoint;
* :mod:`~repro.service.replay` -- the replay verifier: snapshot +
  event log + recorded seeds => bit-identical state stream; and
  ``resume``, which replays a directory and keeps logging to it.
"""

from .clock import VirtualClock, WallClock
from .core import CensusDriftError, ServiceCore, StreamRow
from .live import LiveConfig, LiveEngine
from .replay import ReplayMismatch, ReplayReport, latest_snapshot, replay_directory, replay_events, resume
from .service import ProtocolService, ServiceClient, serve_tcp

__all__ = [
    "VirtualClock",
    "WallClock",
    "LiveConfig",
    "LiveEngine",
    "CensusDriftError",
    "ServiceCore",
    "StreamRow",
    "ProtocolService",
    "ServiceClient",
    "serve_tcp",
    "ReplayMismatch",
    "ReplayReport",
    "replay_directory",
    "replay_events",
    "latest_snapshot",
    "resume",
]
