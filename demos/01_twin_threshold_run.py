"""Walk through one run of the twin-threshold mechanism.

Builds a small nomination graph in which the front-runner's supporters are
themselves popular, runs the mechanism, and narrates the deletion trace.
"""

from impsel import DirectedGraph, ThresholdPair, additive_gap, run_twin_threshold

# Ten reviewers. Everyone piles onto 10, but 10's fans 8 and 9 also collect
# nominations of their own, so their votes are the suspicious ones.
edges = [
    (1, 10), (2, 10), (3, 10), (8, 10), (9, 10),
    (4, 8), (5, 8), (6, 8),
    (6, 9), (7, 9),
    (10, 9),
]
graph = DirectedGraph.from_edges(10, edges)
print("indegrees:", dict(enumerate(graph.indegrees, start=1)))

thresholds = ThresholdPair(upper=4, lower=3)
selected, trace = run_twin_threshold(graph, thresholds)

print(f"\nlower threshold t={thresholds.lower}: vertices at or above it lose their outgoing edges,")
print("highest remaining indegree first, ties to the greater index:")
for i, v, d in trace.deletions:
    print(f"  iteration {i}: vertex {v} deleted at remaining indegree {d}")

print("\nremaining indegrees:", dict(enumerate(trace.final_degrees, start=1)))
print(f"selection needs remaining indegree >= T={thresholds.upper}")
if selected:
    print(f"selected: vertex {selected} with original indegree {graph.indegrees[selected - 1]}")
else:
    print("selected: nobody (an empty selection counts as indegree 0)")
print(f"additive gap versus the true maximum: {additive_gap(graph, selected)}")

# The same rule with both thresholds collapsed to t is manipulable; the gap
# between t and T is what buys impartiality (see demo 03).
