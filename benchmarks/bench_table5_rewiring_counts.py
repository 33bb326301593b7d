"""Table 5: numbers of possible initial dK-randomizing rewirings for HOT.

Paper shape: the count collapses by orders of magnitude as d grows
(0K ~ 4e8, 1K ~ 5e5, 2K ~ 3e5, 3K ~ 1e2 on the original HOT graph), and the
"obvious isomorphism" filter removes a further slice at each level.
"""

from __future__ import annotations

from repro.analysis.tables import render_table
from repro.generators.rewiring.counting import RewiringCounts, rewiring_count_table
from benchmarks._common import FULL_SCALE, run_once

#: The exact counts on the full-scale graph (``synthetic_hot_topology(939,
#: rng=HOT_SEED)``), as (total, ignoring obvious isomorphisms).
FULL_SCALE_COUNTS = {
    1: RewiringCounts(total=999_997, non_isomorphic=680_323),
    2: RewiringCounts(total=332_616, non_isomorphic=12_942),
    3: RewiringCounts(total=320_141, non_isomorphic=467),
}


def test_table5_initial_rewiring_counts(benchmark, hot_graph):
    table = run_once(benchmark, rewiring_count_table, hot_graph, ds=(0, 1, 2, 3))
    rows = []
    for d in (0, 1, 2, 3):
        counts = table[d]
        rows.append([f"{d}K", counts.total, counts.non_isomorphic if d else "-"])
    print()
    print(
        render_table(
            ["d", "possible initial rewirings", "ignoring obvious isomorphisms"],
            rows,
            title="Table 5: possible initial dK-randomizing rewirings (HOT-like graph)",
        )
    )
    totals = [table[d].total for d in (0, 1, 2, 3)]
    # the dK spaces shrink dramatically with d: each level at least an order
    # of magnitude below 0K, and weakly decreasing overall
    assert totals[0] > 100 * totals[1]
    assert totals[1] >= totals[2] >= totals[3]
    # the synthetic HOT-like graph has many same-degree gateways, so a large
    # share of its 3K-preserving swaps are trivial leaf exchanges; once those
    # obvious isomorphisms are discarded (the paper's second column) the 3K
    # space collapses by orders of magnitude, exactly as in the paper
    non_isomorphic = {d: table[d].non_isomorphic for d in (1, 2, 3)}
    assert non_isomorphic[1] >= non_isomorphic[2] >= non_isomorphic[3]
    assert non_isomorphic[3] < 0.2 * non_isomorphic[2]
    for d in (1, 2, 3):
        assert table[d].non_isomorphic <= table[d].total
    if FULL_SCALE:
        assert hot_graph.number_of_nodes == 939
        assert {d: table[d] for d in (1, 2, 3)} == FULL_SCALE_COUNTS
