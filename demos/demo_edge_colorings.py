# Edge labels through three lenses: reduce to the line graph and reuse the
# vertex machinery, number incident edges locally for a one-round defective
# coloring, or color only a dominating set of edges from a tiny palette.

import math

from genlabel import GeneratorSpec, generate
from genlabel.edge_coloring import (
    dominating_edge_coloring,
    edge_coloring_via_line_graph,
    kuhn_defective_edge_coloring,
)
from genlabel.verify import (
    check_edge_defect,
    check_edge_dominating,
    check_edge_domains_disjoint,
    metrics,
)

graph = generate(GeneratorSpec("gnp", 256, p=8 / 255, seed=6))
print(f"graph: n={graph.n} m={graph.m} max_degree={graph.max_degree}")

# 1. line-graph reduction: every edge is simulated by its higher-id endpoint
lg_run = edge_coloring_via_line_graph(graph, variant="delta2", seed=1)
print(f"\nline-graph quadratic variant: palette {lg_run.domains.palette}, "
      f"min domain {lg_run.domains.min_size} "
      f"(>= 2*max_degree-1 = {2 * graph.max_degree - 1})")
print("adjacent edge domains disjoint:",
      check_edge_domains_disjoint(graph, lg_run.domains).ok)

# 2. one round of local numbering: each endpoint numbers its edges with
# multiplicity at most i; the color is the unordered pair of numbers.
i = 2
kuhn = kuhn_defective_edge_coloring(graph, i=i, seed=2)
numbers = kuhn.params["numbers"]
verdict, worst = check_edge_defect(graph, kuhn.colors, 4 * i - 2)
print(f"\ndefective edge coloring (i={i}): C({numbers}+1, 2) = {math.comb(numbers + 1, 2)} "
      f"colors in {kuhn.report.comm_rounds} round; defect {worst} <= 4i-2 = {4 * i - 2}: "
      f"{verdict.ok}")

# 3. dominating set: split a proper c*max_degree coloring into
# ceil(sqrt(max_degree)) classes, take one matching per class, and give each
# class its own t-color range.
dom = dominating_edge_coloring(graph, c=3, t=3, seed=3)
print(f"\ndominating set: {len(dom.dominating)} of {graph.m} edges, "
      f"{dom.params['classes']} classes, dominating: "
      f"{check_edge_dominating(graph, dom.dominating).ok}")
m = metrics(dom.domains.palette, dom.domains.sizes())
print(f"palette {m['problem_domain_size']}, solution domain {m['solution_domain_min']}, "
      f"contingency factor {m['contingency_factor']} "
      f"(= ceil(sqrt(max_degree)) = {math.isqrt(graph.max_degree - 1) + 1})")
