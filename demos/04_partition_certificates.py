"""Ordered-partition graphs and the exact infeasibility certificate.

Each composition of n generates a graph on consecutive blocks; the certificate
combines one inequality per composition (selection mass at most 1, or at least
1 when a vertex is nominated by everyone) with signed multinomial weights.
One walk over the transition edges (a singleton block merging into its left
neighbor) proves that every variable term has exactly one partner and that
each pair cancels, while the constants sum to an odd negative number, so no
selection rule can satisfy all rows: full mass under a universal nominee is
incompatible with never influencing one's own selection.
"""

from impsel import (
    build_certificate,
    enumerate_compositions,
    fubini,
    graph_of_composition,
    lambda_of,
    transitions,
)

n = 4
print(f"compositions of {n} and their generated graphs:")
for p in enumerate_compositions(n):
    g = graph_of_composition(p)
    print(f"  {str(p.parts):12s} lambda={lambda_of(p):3d}  indegrees={g.indegrees}")

total = fubini(n)
print(f"\nmultiplicity sum (weak orders on {n} elements): {total.value}, odd={total.odd}")

print(f"\ntransitions (singleton block merges down, one vertex rewrites its edges):")
for p, j, q in transitions(n):
    print(f"  {p} --{j}--> {q}")

cert = build_certificate(n)
print(f"certificate checks over {cert.links} edges: {[(c.name, c.ok) for c in cert.checks]}")
print(f"\ncertificate rows (sense is which inequality the row contributes):")
for row in cert.rows:
    print(f"  {str(row.composition.parts):12s} {row.sense:13s} multiplier {row.multiplier:+d}")
print(f"signed total {cert.rhs_total} (odd, negative), cancellation_ok={cert.cancellation_ok}")
print("=> the combined system demands 0 <= " + str(cert.rhs_total) + ", which is absurd")

print("\nthe same construction succeeds for n = 2..8:")
for m in range(2, 9):
    c = build_certificate(m)
    print(f"  n={m}: rhs_total={c.rhs_total}, cancellation_ok={c.cancellation_ok}")
