#!/usr/bin/env python3
"""Run the claim checker over every non-isomorphic connected graph with at
most 6 vertices and show what survives.

The checker treats each claim as a hypothesis: exhaustive search either
reports HOLDS or produces a concrete counterexample that can be re-checked
through the public predicates.

Run:  python3 demos/04_claim_checker.py
"""

from jrainbow import check_all, enumerate_graphs, report

corpus = [g for n in range(1, 7) for g in enumerate_graphs(n, connected_only=True)]
print(f"corpus: {len(corpus)} connected graphs with 1..6 vertices\n")

verdicts = check_all(corpus, corpus="connected graphs n<=6")
print(report(verdicts, "text"))

print("""
Reading the table:

* T2 under the convention reading fails: two 6-vertex graphs admit a
  J-colouring although the deterministic greedy-maximal chromatic
  colouring leaves some vertex without a rainbow neighbourhood.  Under
  the existential reading (some chromatic colouring works) the
  characterisation holds on this corpus, and T3 agrees; both hold on
  every graph up to order 7 but fail at order 8, where three connected
  graphs with chi = 3 and J = 4 have no chromatic colouring under which
  every vertex yields.

* T9 fails in both parses: the two-triangles-with-bridge graph admits a
  J-colouring with 3 colours and has no pendant vertices, yet its bridge
  pair has a single connecting path that cannot carry 3 colours.

* T10 fails in both modes, e.g. on the 5-cycle: it admits no J-colouring
  at all, yet every vertex pair is joined by a path covering all 3
  colours of a chromatic colouring.
""")
