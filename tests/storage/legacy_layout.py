"""The hash-shard row layout older versions wrote, for building old stores.

Earlier versions could store a relation's rows in CRC32 hash shards of
the entity key (the ``partition`` column of SQLite's ``tuples`` table).
The library no longer shards anything, but stores written that way
must keep loading, so the storage tests fabricate them with this
function.
"""

import zlib


def shard_index(key: tuple, n: int) -> int:
    """The shard (0..n-1) an older version stored entity *key* in."""
    return zlib.crc32(repr(key).encode("utf-8")) % n
