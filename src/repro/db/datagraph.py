"""Tuple-level data graph (Section 2.2.2).

Data-based keyword-search approaches (BANKS and friends) operate on a graph
whose nodes are database tuples and whose edges are foreign-key links between
tuples.  :class:`DataGraph` materializes that graph from a storage backend
so the BANKS-style baseline can run backward-expanding Steiner-tree search.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.db.backends.base import StorageBackend

#: Node identity in the data graph: ``(table name, primary key)``.
TupleId = tuple[str, Any]


class DataGraph:
    """Undirected tuple graph with unit edge weights.

    The thesis notes edge weights can reflect tuple proximity or PageRank
    style importance; unit weights reproduce the minimality-driven ranking
    (number of joins) the comparisons in Chapter 3 rely on.

    ``graph[u][v]`` is the weight of the edge between tuples ``u`` and ``v``,
    entered under both ends (a tuple whose foreign key names itself has a
    self-loop ``graph[u][u]``); every tuple is a key.
    """

    def __init__(self, database: StorageBackend):
        self.database = database
        self.graph: dict[TupleId, dict[TupleId, float]] = {}
        self._build()

    def _build(self) -> None:
        graph = self.graph
        for table in self.database.schema:
            for tup in self.database.relation(table.name):
                graph[tup.uid] = {}
        for fk in self.database.schema.foreign_keys:
            target_relation = self.database.relation(fk.target)
            for tup in self.database.relation(fk.source):
                value = tup.get(fk.source_attr)
                if value is None:
                    continue
                for match in target_relation.lookup(fk.target_attr, value):
                    graph[tup.uid][match.uid] = 1.0
                    graph[match.uid][tup.uid] = 1.0

    # -- queries -----------------------------------------------------------

    def node_count(self) -> int:
        return len(self.graph)

    def edge_count(self) -> int:
        """Undirected edges, each self-loop counted once."""
        ends = sum(len(neighbours) for neighbours in self.graph.values())
        loops = sum(1 for node, neighbours in self.graph.items() if node in neighbours)
        return (ends + loops) // 2

    def neighbors(self, node: TupleId) -> Iterable[TupleId]:
        return iter(self.graph[node])

    def keyword_nodes(self, term: str) -> set[TupleId]:
        """All tuple ids whose indexed text contains ``term``."""
        index = self.database.require_index()
        nodes: set[TupleId] = set()
        for table, attribute in index.attributes_containing(term):
            for key in index.tuple_keys(term, table, attribute):
                nodes.add((table, key))
        return nodes
