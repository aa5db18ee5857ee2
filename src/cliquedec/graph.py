"""Finite simple undirected graphs with a canonical vertex order.

Vertices are opaque strings.  The canonical order is insertion order of
first appearance; every set-valued result is emitted sorted by it, so all
outputs are deterministic.  Graphs are immutable after construction and
all operations are pure.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from .errors import LoopEdge, UnknownVertex

INFINITY = float("inf")


class Graph:
    """Finite simple graph: no loops, no parallel edges."""

    __slots__ = (
        "_vertices", "_index", "_adj",
        "_component_cache", "_clique_tree", "_bottleneck_cache",
    )

    def __init__(self, vertices: Iterable[str], edges: Iterable[Tuple[str, str]] = ()):
        index: Dict[str, int] = {}
        for v in vertices:
            if not isinstance(v, str):
                raise TypeError(f"vertex identifiers must be strings, got {v!r}")
            index.setdefault(v, len(index))
        adj: Dict[str, set] = {v: set() for v in index}
        for u, v in edges:
            if u == v:
                raise LoopEdge(f"loop at {u!r}")
            if u not in adj or v not in adj:  # an end that vertices lacks joins now
                for w in (u, v):
                    if w not in adj:
                        if not isinstance(w, str):
                            raise TypeError(f"vertex identifiers must be strings, got {w!r}")
                        index[w] = len(index)
                        adj[w] = set()
            adj[u].add(v)
            adj[v].add(u)
        self._vertices = tuple(index)
        self._index = index
        self._adj = {v: frozenset(nbrs) for v, nbrs in adj.items()}
        self._component_cache: Dict[FrozenSet[str], list] = {}
        self._clique_tree = None  # set by chordal.clique_tree
        self._bottleneck_cache: Dict[FrozenSet[str], dict] = {}  # separations.bottleneck_part

    # -- basics ---------------------------------------------------------

    @property
    def vertices(self) -> Tuple[str, ...]:
        return self._vertices

    def __len__(self) -> int:
        return len(self._vertices)

    def __contains__(self, v: str) -> bool:
        return v in self._index

    def key(self, v: str) -> int:
        """Canonical sort key of a vertex."""
        try:
            return self._index[v]
        except KeyError:
            raise UnknownVertex(f"unknown vertex {v!r}") from None

    def sorted(self, vs: Iterable[str]) -> List[str]:
        """Sort vertices into the canonical order."""
        return sorted(vs, key=self.key)

    def neighbors(self, v: str) -> FrozenSet[str]:
        if v not in self._index:
            raise UnknownVertex(f"unknown vertex {v!r}")
        return self._adj[v]

    def degree(self, v: str) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: str, v: str) -> bool:
        return v in self._adj.get(u, frozenset())

    def edges(self) -> List[Tuple[str, str]]:
        """All edges, canonically ordered pairs in canonical order."""
        key = self._index
        out = [(u, v) for u, ku in key.items() for v in self._adj[u] if key[v] > ku]
        return sorted(out, key=lambda e: (key[e[0]], key[e[1]]))

    def edge_count(self) -> int:
        return sum(map(len, self._adj.values())) // 2

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self._vertices == other._vertices
            and self._adj == other._adj
        )

    def __hash__(self):
        return hash((self._vertices, frozenset(self._adj.items())))

    def __repr__(self):
        return f"Graph({len(self)} vertices, {self.edge_count()} edges)"

    # -- derived graphs -------------------------------------------------

    def induced(self, vs: Iterable[str]) -> "Graph":
        """Induced subgraph, keeping the host's canonical order."""
        keep = set(vs)
        for v in keep:
            if v not in self._index:
                raise UnknownVertex(f"unknown vertex {v!r}")
        order = sorted(keep, key=self._index.__getitem__)
        edges = [
            (u, v)
            for u in order
            for v in self._adj[u]
            if v in keep and self._index[u] < self._index[v]
        ]
        return Graph(order, edges)

    def is_clique(self, vs: Iterable[str]) -> bool:
        vl = list(vs)
        return all(self.has_edge(u, v) for i, u in enumerate(vl) for v in vl[i + 1 :])

    # -- metric and components ------------------------------------------

    def distances_from(self, v: str, radius: float = INFINITY) -> Dict[str, int]:
        """BFS distances from v to every vertex of its component within radius."""
        if v not in self._index:
            raise UnknownVertex(f"unknown vertex {v!r}")
        dist = {v: 0}
        queue = deque([v])
        while queue:
            u = queue.popleft()
            if dist[u] >= radius:
                break  # BFS pops in distance order, so every later u is as far
            for w in self._adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist

    def distance(self, u: str, v: str):
        """Graph distance; INFINITY across components."""
        if v not in self._index:
            raise UnknownVertex(f"unknown vertex {v!r}")
        return self.distances_from(u).get(v, INFINITY)

    def components(self) -> List[FrozenSet[str]]:
        return [c for c, _ in self.components_after_deletion(frozenset())]

    def is_connected(self) -> bool:
        return len(self) <= 1 or len(self.components()) == 1

    def components_after_deletion(
        self, deleted: Iterable[str]
    ) -> List[Tuple[FrozenSet[str], bool]]:
        """Components of G-X with a flag for N_G(C) = X (full components).

        The neighborhood N_G(C) is computed in the original graph.
        """
        x = frozenset(deleted)
        cached = self._component_cache.get(x)
        if cached is not None:
            return cached
        for v in x:
            if v not in self._index:
                raise UnknownVertex(f"unknown vertex {v!r}")
        seen = set(x)
        out = []
        for start in self._vertices:
            if start in seen:
                continue
            comp = set()
            queue = deque([start])
            seen.add(start)
            while queue:
                u = queue.popleft()
                comp.add(u)
                for w in self._adj[u]:
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
            nbhd = set()
            for u in comp:
                nbhd |= self._adj[u]
            nbhd -= comp
            out.append((frozenset(comp), nbhd == x))
        self._component_cache[x] = out
        return out

    def ball(self, v: str, radius2: int) -> "Graph":
        """Ball of radius radius2/2 around v.

        Both parities yield the induced subgraph on the vertices at
        distance at most radius2 // 2 from v; the half-integer convention
        (vertices at distance <= k plus all host edges among them for
        radius (2k+1)/2) coincides with the induced subgraph.
        """
        if radius2 < 0:
            raise ValueError("radius2 must be nonnegative")
        dist = self.distances_from(v, radius2 // 2)
        return self.induced(dist)

    # -- serialization --------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"vertices": list(self._vertices), "edges": [list(e) for e in self.edges()]}

    @staticmethod
    def from_json_dict(data: dict) -> "Graph":
        _json_fields(data, "graph JSON", ("vertices", "edges"))
        vertices = _json_strings(data.get("vertices", []), "graph JSON 'vertices'")
        edges = _json_list(data.get("edges", []), "graph JSON 'edges'")
        return _json_graph(vertices, edges, "a graph edge")


# -- JSON input checks, shared by the readers of every input format ------


def _json_fields(value, what: str, known: Sequence[str], required: Sequence[str] = ()) -> dict:
    """An object with no field outside known and every field of required."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be an object, got {type(value).__name__}")
    unknown = value.keys() - known
    if unknown:
        raise ValueError(f"unknown fields in {what}: {sorted(unknown)}")
    missing = set(required) - value.keys()
    if missing:
        raise ValueError(f"{what} lacks the fields {sorted(missing)}")
    return value


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {type(value).__name__}")
    return value


def _json_strings(value, what: str) -> list:
    for v in _json_list(value, what):
        if not isinstance(v, str):
            raise ValueError(f"{what} must hold strings, got {v!r}")
    return value


def _all(values: Iterable, kind: type) -> bool:
    """Is each value exactly of type kind?  A bulk test; the readers check
    each value on its own only when it fails, to name an offender."""
    return set(map(type, values)) <= {kind}


def _json_graph(vertices: list, edges: list, what: str) -> Graph:
    """The graph of JSON edges, each a list of two strings.  Once they are
    all lists, Graph rejects any that is not two strings, so each edge is
    checked on its own only when either test fails, to name the first."""
    try:
        if _all(edges, list):
            return Graph(vertices, edges)
    except (LoopEdge, TypeError, ValueError):
        pass
    return Graph(vertices, [_json_pair(e, what) for e in edges])


def _json_pair(value, what: str) -> Tuple[str, str]:
    """An edge: a list of two strings."""
    if isinstance(value, list) and len(value) == 2:
        u, v = value
        if isinstance(u, str) and isinstance(v, str):
            return u, v
    raise ValueError(f"{what} must be a list of two strings, got {value!r}")


def from_edge_list(pairs: Sequence[Tuple[str, str]], isolated: Sequence[str] = ()) -> Graph:
    """Build a graph from an edge list, deduplicating parallel edges.

    Vertex set is the union of endpoints plus explicitly declared isolated
    vertices; a pair with equal endpoints raises LoopEdge.
    """
    return Graph([w for e in pairs for w in e] + list(isolated), pairs)
