"""Symmetrization and the padding reductions that transport impossibility.

Symmetrizing averages a mechanism over all vertex relabelings in exact
rational arithmetic, for every graph of a class at once; the result treats
vertices symmetrically and keeps impartiality.  The two reductions embed small hard instances into larger
classes: isolated padding targets bounded outdegree, in-neighbor padding
targets the no-abstention setting.
"""

from impsel import (
    GraphClassSpec,
    MechanismId,
    graph_of_composition,
    reduce_add_inneighbors,
    reduce_add_isolated,
    resolve,
    symmetrized_table,
)

# A fixed-tie-break rule is asymmetric; its symmetrization is not.
graph = graph_of_composition((1, 2))  # 1 nominates 2 and 3, which nominate each other
print("graph edges:", graph.edges, "indegrees:", graph.indegrees)
mid = MechanismId.parse("max-naive")
print("deterministic rule picks vertex", resolve(mid)(graph))
symmetric = symmetrized_table(mid, GraphClassSpec(3))[graph.key]
print("symmetrized:", [str(symmetric.prob(v)) for v in (1, 2, 3)], "mass", symmetric.mass)

# Isolated padding: a 3-vertex instance living inside G_8(2).
small = graph_of_composition((2, 1))
padded = reduce_add_isolated(small, 8)
print("\nisolated padding of", small.edges)
print("  ->", padded.n, "vertices,", padded.edge_count, "edges, max indegree", padded.max_indegree)
print("  in class G_8(2):", GraphClassSpec(8, 2).contains(padded))

# In-neighbor padding: everyone nominates someone, added helpers nominate all
# originals, and original indegrees rise in lockstep (by n - k each).
helpers = reduce_add_inneighbors(small, 8)
print("\nin-neighbor padding of", small.edges)
print("  indegrees:", helpers.indegrees)
print("  outdegrees:", helpers.outdegrees)
print("  no abstentions:", GraphClassSpec(8, None, True).contains(helpers))
