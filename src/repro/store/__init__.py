"""Sharded, WAL-backed storage and streaming aggregation.

The subsystem behind million-participant campaigns:

* :mod:`repro.store.wal` — checksum-framed append-only write-ahead log
  with truncation-tolerant replay (the same recoverability contract as the
  fleet journal);
* :mod:`repro.store.sharded` — :class:`ShardedDocumentStore`, a drop-in
  ``DocumentStore`` replacement that hash-partitions documents across N
  WAL-backed shards with snapshot + compaction and spill-to-log for the
  response firehose;
* :mod:`repro.store.stream` — :class:`StreamingAggregator` /
  :class:`OnlineQualityScreen`, encoding each upload's answers once into
  small answer codes and folding them into O(pairs) sufficient statistics.
  Every campaign concludes from those codes; with the sharded store it
  reads no stored row to do so.
"""

from repro.store.sharded import ShardedDocumentStore
from repro.store.stream import (
    OnlineQualityScreen,
    StreamingAggregator,
    StreamingCampaignState,
    StreamingConclusionData,
    StreamingQualityReport,
)
from repro.store.wal import (
    DiskShardBackend,
    MemoryShardBackend,
    WriteAheadLog,
    decode_wal_line,
    encode_wal_record,
)

__all__ = [
    "DiskShardBackend",
    "MemoryShardBackend",
    "OnlineQualityScreen",
    "ShardedDocumentStore",
    "StreamingAggregator",
    "StreamingCampaignState",
    "StreamingConclusionData",
    "StreamingQualityReport",
    "WriteAheadLog",
    "decode_wal_line",
    "encode_wal_record",
]
