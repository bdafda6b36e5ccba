"""Federation network topology (paper Figure 2).

Models the inter-region links of the training federation as a
weighted :mod:`networkx` graph.  Exposes the two quantities that
drive the paper's aggregation analysis:

* the **Ring-AllReduce bottleneck** — the slowest link on the ring
  (Maharashtra–Quebec at 0.8 Gbps in Fig. 2), which bounds RAR; and
* the **Parameter-Server bottleneck** — the slowest client↔server
  link for the chosen aggregator host (England in the paper).
"""

from __future__ import annotations

__all__ = [
    "FederationTopology",
    "paper_topology",
    "PAPER_REGIONS",
    "PAPER_LINKS_GBPS",
]

#: Fig. 2 regions.
PAPER_REGIONS = ("England", "Utah", "Texas", "Quebec", "Maharashtra")

#: Fig. 2 link bandwidths in Gbps (undirected).  The ring used by RAR
#: is England–Utah–Texas–Quebec–Maharashtra–England.
PAPER_LINKS_GBPS: dict[tuple[str, str], float] = {
    ("England", "Utah"): 3.0,
    ("England", "Texas"): 5.0,
    ("England", "Quebec"): 8.0,
    ("England", "Maharashtra"): 1.2,
    ("Utah", "Texas"): 2.0,
    ("Texas", "Quebec"): 2.0,
    ("Quebec", "Maharashtra"): 0.8,
    ("Utah", "Maharashtra"): 1.5,
}


class FederationTopology:
    """A set of regions plus pairwise link bandwidths."""

    def __init__(self, regions: tuple[str, ...] | list[str],
                 links_gbps: dict[tuple[str, str], float]):
        if len(set(regions)) != len(regions):
            raise ValueError("duplicate region names")
        import networkx as nx  # deferred: it would dominate `import repro`
        self.graph = nx.Graph()
        self.graph.add_nodes_from(regions)
        for (a, b), bw in links_gbps.items():
            if a not in self.graph or b not in self.graph:
                raise KeyError(f"link ({a}, {b}) references unknown region")
            if bw <= 0:
                raise ValueError(f"bandwidth must be positive for ({a}, {b})")
            self.graph.add_edge(a, b, gbps=float(bw))

    @property
    def regions(self) -> list[str]:
        return list(self.graph.nodes)

    def bandwidth(self, a: str, b: str) -> float:
        """Link bandwidth in Gbps; raises if no direct link exists."""
        if not self.graph.has_edge(a, b):
            raise KeyError(f"no direct link between {a} and {b}")
        return self.graph.edges[a, b]["gbps"]

    # ------------------------------------------------------------------
    # Aggregation-topology analysis
    # ------------------------------------------------------------------
    def ring_bottleneck(self, ring: list[str]) -> tuple[tuple[str, str], float]:
        """Slowest link on a ring ordering of regions (bounds RAR)."""
        if len(ring) < 2:
            raise ValueError("a ring needs at least two regions")
        worst_link, worst_bw = None, float("inf")
        for i, a in enumerate(ring):
            b = ring[(i + 1) % len(ring)]
            bw = self.bandwidth(a, b)
            if bw < worst_bw:
                worst_link, worst_bw = (a, b), bw
        return worst_link, worst_bw

    def best_ring(self) -> tuple[list[str], float]:
        """Max-bottleneck Hamiltonian ring via brute force (the paper's
        federation has 5 regions, so this is exact and instant)."""
        import itertools

        regions = self.regions
        best_order, best_bw = None, -1.0
        first = regions[0]
        for perm in itertools.permutations(regions[1:]):
            ring = [first, *perm]
            try:
                _, bw = self.ring_bottleneck(ring)
            except KeyError:
                continue
            if bw > best_bw:
                best_order, best_bw = ring, bw
        if best_order is None:
            raise ValueError("no Hamiltonian ring exists in this topology")
        return best_order, best_bw

    def ps_bottleneck(self, server: str) -> tuple[str, float]:
        """Slowest client→server link for a parameter-server host."""
        if server not in self.graph:
            raise KeyError(f"unknown region {server!r}")
        worst_region, worst_bw = None, float("inf")
        for region in self.regions:
            if region == server:
                continue
            if self.graph.has_edge(region, server):
                bw = self.bandwidth(region, server)
            else:
                # Route over the widest path if no direct link.
                bw = self.widest_path_bandwidth(region, server)
            if bw < worst_bw:
                worst_region, worst_bw = region, bw
        return worst_region, worst_bw

    def widest_path_bandwidth(self, a: str, b: str) -> float:
        """Maximum-bottleneck path bandwidth between two regions."""
        # Dijkstra variant on -min(bandwidth) via networkx's
        # widest-path trick: iterate paths by max bottleneck.
        import networkx as nx
        best = 0.0
        for path in nx.all_simple_paths(self.graph, a, b):
            bw = min(self.bandwidth(u, v) for u, v in zip(path, path[1:]))
            best = max(best, bw)
        if best == 0.0:
            raise nx.NetworkXNoPath(f"no path between {a} and {b}")
        return best

    def best_ps_host(self) -> tuple[str, float]:
        """Region whose worst client link is fastest (best PS host)."""
        best_region, best_bw = None, -1.0
        for region in self.regions:
            _, bw = self.ps_bottleneck(region)
            if bw > best_bw:
                best_region, best_bw = region, bw
        return best_region, best_bw


def paper_topology() -> FederationTopology:
    """The Figure 2 federation."""
    return FederationTopology(PAPER_REGIONS, PAPER_LINKS_GBPS)
