"""Maximum-flow / minimum-cut algorithms (the paper's first baseline).

The paper compares its spectral cut against "the maximum flow minimum cut
algorithm" (Ford-Fulkerson, specialised as Edmonds-Karp).  This package
implements that baseline from scratch on the undirected weighted graph
substrate, plus two extensions used by the ablation benches: Dinic's
algorithm and the Stoer-Wagner global minimum cut.
"""

from repro.mincut.dinic import dinic_max_flow
from repro.mincut.edmonds_karp import MaxFlowResult, edmonds_karp
from repro.mincut.karger import KargerResult, karger_min_cut
from repro.mincut.residual import ResidualNetwork
from repro.mincut.st_selection import maxflow_bisect, select_source_sink
from repro.mincut.stoer_wagner import stoer_wagner_min_cut

__all__ = [
    "ResidualNetwork",
    "edmonds_karp",
    "MaxFlowResult",
    "dinic_max_flow",
    "stoer_wagner_min_cut",
    "select_source_sink",
    "maxflow_bisect",
    "karger_min_cut",
    "KargerResult",
]
