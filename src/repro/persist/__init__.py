"""repro.persist — durable, dependency-free checkpoint/restore of serving state.

The serving tiers (:mod:`repro.service`, :mod:`repro.cluster`) hold all of
their state in process memory: pane buffers and open panes, rolling
ACF/moment sums, refresh countdowns.  This package makes that
state durable:

* :func:`checkpoint` — snapshot a :class:`~repro.service.StreamHub` or
  :class:`~repro.cluster.ShardedHub` to ``bytes`` or a file;
* :func:`restore` — rebuild it, with the repo-wide guarantee applied to
  durability: the restored hub emits **bit-identical** subsequent frames to
  one that was never interrupted;
* :mod:`repro.persist.codec` — the wire format: one raw-buffer envelope
  holding a JSON manifest plus the state's arrays' raw bytes, versioned by
  :data:`~repro.persist.codec.SCHEMA_VERSION` and written/read entirely with
  the standard library and numpy (no pickle, no object dtypes).

Derived caches are never persisted — they rebuild lazily after restore.
"""

from .checkpoint import CheckpointError, checkpoint, restore
from .codec import SCHEMA_VERSION

__all__ = ["checkpoint", "restore", "CheckpointError", "SCHEMA_VERSION"]
