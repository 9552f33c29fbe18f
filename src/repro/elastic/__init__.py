"""Elastic keyspace: live resharding with checkpoint-assisted handover.

PR 5 sharded the keyspace across independent agreement groups but froze
each key's shard at ``crc32 mod N`` forever.  This package makes key
placement a first-class, *movable* fact:

* :mod:`repro.elastic.rangemap` — the epoch-versioned routing table
  (``RangeMap``) whose epoch-0 striped form is byte-identical to the
  historical modulo partitioner;
* :mod:`repro.elastic.messages` — the ordered ``MoveRange`` command and
  ``ElasticAck`` receipt, plus the ``Migrating`` / ``WrongShard`` result
  values stale clients are redirected with;
* :mod:`repro.elastic.book` — per-replica sealed/dropped-range
  bookkeeping, replicated via the commit stream and checkpoints;
* :mod:`repro.elastic.plan` — ``split_moves`` (the ``SplitShard``
  planner) and ``validate_moves`` (validation of a declared ``moves`` plan).

The moving parts thread through :mod:`repro.deploy` (``Cluster.move_range``
/ ``split_shard``, session parking + redirects) and the core replicas
(marker application, range shedding, checkpoint embedding); see
``docs/architecture.md`` ("Elastic keyspace") for the three-phase
handover walkthrough.
"""

from repro.elastic.book import ElasticBook
from repro.elastic.messages import ElasticAck, Migrating, MoveRange, WrongShard
from repro.elastic.plan import split_moves, validate_moves
from repro.elastic.rangemap import SLOTS_PER_SHARD, RangeMap, slot_of

__all__ = [
    "SLOTS_PER_SHARD",
    "RangeMap",
    "slot_of",
    "MoveRange",
    "ElasticAck",
    "Migrating",
    "WrongShard",
    "ElasticBook",
    "split_moves",
    "validate_moves",
]
