"""Brute-force impartiality audits: positive and negative controls.

The audit enumerates an entire graph class and, for every graph and every
vertex, every admissible rewrite of that vertex's outgoing edges.  A violation
is a vertex that changes its own selection status by rewriting.
"""

from impsel import GraphClassSpec, MechanismId, check_impartiality, measure_gap

single_nomination_5 = GraphClassSpec(5, 1)

print("positive controls (zero violations expected):")
for text in ("never", "follow:1", "majority", "twin:4,1"):
    violations = check_impartiality(MechanismId.parse(text), single_nomination_5)
    gap = measure_gap(MechanismId.parse(text), single_nomination_5).worst_gap
    print(f"  {text:10s} on G_5(1): {len(violations)} violations, worst gap {gap}")

print("\nnegative controls (manipulable by design):")
for text, spec in (
    ("max-naive", GraphClassSpec(4, 1)),
    ("naive-iter:2", GraphClassSpec(4, 1)),
    ("naive-sim:2", GraphClassSpec(5, 1)),
):
    violations = check_impartiality(MechanismId.parse(text), spec)
    print(f"  {text:12s} on {spec.describe()}: {len(violations)} violations")
    w = violations[0]
    print(f"    e.g. vertex {w.deviator} selected={w.selected_a} here:")
    for line in w.text_a.splitlines():
        print(f"      {line}")
    print(f"    but selected={w.selected_b} after rewriting its own nominations:")
    for line in w.text_b.splitlines():
        print(f"      {line}")

# Lowering both thresholds to the same value reintroduces exactly the kind of
# self-serving rewrite shown above; the audit is how we caught it.
