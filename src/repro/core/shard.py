"""Site-keyed shard routing: one hash function for every sharded layer.

Two layers route work by site so that per-site state (learned rules,
parsed-tree caches, single-flight learner election) stays local to one
executor:

* :mod:`repro.serve.procpool` routes requests to its pre-forked worker
  processes;
* :mod:`repro.fleet` hashes the same keys onto its consistent-hash ring
  to pick the serve *node* that owns a site.

They must agree on the hash, or a site "local" to one layer scatters
in the next -- so the crc32 routing primitive lives here, beneath all of
them.  crc32 is deterministic across processes and Python versions
(``hash()`` is salted per process), cheap, and good enough: balance is
pinned by the ring property tests, stability by the shard tests.
"""

from __future__ import annotations

import zlib

__all__ = ["shard_index", "stable_hash"]


def stable_hash(key: str) -> int:
    """A process-stable 32-bit hash of a routing key."""
    return zlib.crc32(key.encode("utf-8"))


def shard_index(key: str, shards: int) -> int:
    """The shard a routing key maps to (stable across restarts)."""
    return stable_hash(key) % shards
