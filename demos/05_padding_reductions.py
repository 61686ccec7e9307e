"""The padding reductions that transport impossibility.

The two reductions embed small hard instances into larger classes: isolated
padding targets bounded outdegree, in-neighbor padding targets the
no-abstention setting.
"""

from impsel import (
    GraphClassSpec,
    graph_of_composition,
    reduce_add_inneighbors,
    reduce_add_isolated,
)

# Isolated padding: a 3-vertex instance living inside G_8(2).
small = graph_of_composition((2, 1))
padded = reduce_add_isolated(small, 8)
print("isolated padding of", small.edges)
print("  ->", padded.n, "vertices,", padded.edge_count, "edges, max indegree", padded.max_indegree)
print("  in class G_8(2):", GraphClassSpec(8, 2).contains(padded))

# In-neighbor padding: everyone nominates someone, added helpers nominate all
# originals, and original indegrees rise in lockstep (by n - k each).
helpers = reduce_add_inneighbors(small, 8)
print("\nin-neighbor padding of", small.edges)
print("  indegrees:", helpers.indegrees)
print("  outdegrees:", helpers.outdegrees)
print("  no abstentions:", GraphClassSpec(8, None, True).contains(helpers))
