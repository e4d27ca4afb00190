"""BANKS-style data-based keyword search (Section 2.2.2).

BANKS answers keyword queries directly on the tuple-level data graph:
backward expanding search grows shortest-path trees from every tuple
containing a keyword (Dijkstra per keyword group); any node reached by all
groups is a candidate root of a joining tuple tree (JTT), scored by the total
path weight — an approximation of the (NP-complete) minimum group Steiner
tree.  Results materialize directly, without candidate networks.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.core.keywords import KeywordQuery
from repro.db.datagraph import DataGraph, TupleId


@dataclass(frozen=True)
class TupleTree:
    """A joining network of tuples rooted at ``root`` covering all keywords."""

    root: TupleId
    nodes: frozenset[TupleId]
    cost: float

    @property
    def size(self) -> int:
        return len(self.nodes)


@dataclass
class BanksSearch:
    """Backward expanding search over a :class:`DataGraph`."""

    datagraph: DataGraph
    #: Cap on Dijkstra expansion per keyword group (scalability guard).
    max_visited_per_group: int = 50_000

    def keyword_groups(self, query: KeywordQuery) -> list[set[TupleId]]:
        """Tuple-node sets per distinct keyword term (empty terms dropped)."""
        groups: list[set[TupleId]] = []
        for term in dict.fromkeys(k.term for k in query.keywords):
            nodes = self.datagraph.keyword_nodes(term)
            if nodes:
                groups.append(nodes)
        return groups

    def _dijkstra(self, sources: set[TupleId]) -> dict[TupleId, tuple[float, TupleId]]:
        """Multi-source shortest paths: node -> (distance, tree predecessor)."""
        dist: dict[TupleId, tuple[float, TupleId]] = {}
        heap: list[tuple[float, TupleId, TupleId]] = []
        for s in sources:
            heapq.heappush(heap, (0.0, s, s))
        visited = 0
        graph = self.datagraph.graph
        while heap and visited < self.max_visited_per_group:
            d, node, pred = heapq.heappop(heap)
            if node in dist:
                continue
            dist[node] = (d, pred)
            visited += 1
            for neighbor, weight in graph[node].items():
                if neighbor not in dist:
                    heapq.heappush(heap, (d + weight, neighbor, node))
        return dist

    def _collect_path(
        self, node: TupleId, dist: dict[TupleId, tuple[float, TupleId]]
    ) -> set[TupleId]:
        """Nodes on the shortest path from ``node`` back to its source."""
        path = {node}
        current = node
        while True:
            _d, pred = dist[current]
            if pred == current:
                break
            path.add(pred)
            current = pred
        return path

    def search(self, query: KeywordQuery, k: int = 10) -> list[TupleTree]:
        """Top-``k`` minimal joining tuple trees for ``query``.

        Completeness (AND semantics): a tree must connect at least one tuple
        from every keyword group.  Returns the cheapest ``k`` trees by total
        root-to-keyword path cost, deduplicated by node set.
        """
        groups = self.keyword_groups(query)
        if not groups:
            return []
        distances = [self._dijkstra(g) for g in groups]
        candidate_roots = set(distances[0])
        for dist in distances[1:]:
            candidate_roots &= set(dist)
        scored: list[tuple[float, TupleId]] = []
        for root in candidate_roots:
            cost = sum(dist[root][0] for dist in distances)
            scored.append((cost, root))
        scored.sort(key=lambda pair: (pair[0], repr(pair[1])))
        trees: list[TupleTree] = []
        seen_nodesets: set[frozenset[TupleId]] = set()
        for cost, root in scored:
            nodes: set[TupleId] = set()
            for dist in distances:
                nodes |= self._collect_path(root, dist)
            frozen = frozenset(nodes)
            if frozen in seen_nodesets:
                continue
            seen_nodesets.add(frozen)
            trees.append(TupleTree(root=root, nodes=frozen, cost=cost))
            if len(trees) >= k:
                break
        return trees
