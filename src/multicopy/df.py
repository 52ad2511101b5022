"""Differential-file instance: one write buffer in front of one big table.

The smallest useful multicopy shape. All writes land in the in-memory root
buffer; a flush moves every buffered record into the unbounded table
behind it. The single edge owns the whole keyspace, so a search is: check
the buffer, else check the table, else report the key deleted. Since the
table is unbounded a flush always empties the buffer completely, and every
buffered copy is strictly newer than the table's copy of the same key.
The table is not stored apart: it is read off the root's one edge.
"""

from __future__ import annotations

from .core import MulticopyError
from .lsm import MulticopyStructure
from .nodes import (
    NodeHandle,
    NodeId,
    fresh_node_id,
    merge_contents,  # noqa: F401  perfbench/tracing.py hooks df.merge_contents
)


class DfStructure(MulticopyStructure):
    """Two fixed nodes; searches and upserts come from the shared engine."""

    @classmethod
    def create(
        cls,
        keyspace_size: int,
        root_capacity: int,
    ) -> "DfStructure":
        root = NodeHandle(fresh_node_id(), root_capacity)
        disk = NodeHandle(fresh_node_id(), capacity=None)
        root.succ_edgesets[disk.id] = frozenset(range(keyspace_size))
        return cls(keyspace_size, root.id, [root, disk])

    @property
    def disk_id(self) -> NodeId:
        """The table: the root's only successor."""
        (disk,) = self._handles[self._root].succ_edgesets
        return disk

    def flush(self) -> None:
        """Move everything buffered at the root down to the table.

        Unlike the DAG compaction this is not gated on capacity: flushing a
        half-empty (or empty) buffer is legal and sometimes useful.
        """
        self._merge_down(self._root, lambda n: self.disk_id)

    def maintenance_pass(self) -> None:
        self.flush()

    def compact(self) -> None:
        raise MulticopyError("differential-file structure flushes; it does not compact")
