# One communication round is enough for a private coloring if every vertex
# computes a whole *set* of safe colors and later picks one in secret.
#
# Each vertex draws k = ceil(c*log2 n) tagged values from a range twice the
# maximum degree, trades the draw with its neighbors, and throws away every
# exact collision.  Whatever survives is guaranteed safe no matter what the
# neighbors end up choosing, and about half of the draw survives.

import math
from fractions import Fraction

from genlabel import GeneratorSpec, generate, generic_random_coloring
from genlabel.verify import check_domains_disjoint, metrics

graph = generate(GeneratorSpec("gnp", 1024, p=5 / 1023, seed=42))
print(f"graph: n={graph.n} m={graph.m} max_degree={graph.max_degree}")

result = generic_random_coloring(graph, c=4.0, seed=7)
report = result.report
print(f"communication rounds: {report.comm_rounds} "
      f"(messages: {report.messages_total})")

k = result.params["k"]
sizes = result.domains.sizes()
print(f"draw size k={k}; surviving set sizes: min={min(sizes)} "
      f"median={sorted(sizes)[len(sizes) // 2]} max={max(sizes)}")

# The privacy argument is structural: adjacent sets never overlap, so *any*
# secret selection is a proper coloring.
verdict = check_domains_disjoint(graph, result.domains)
print("adjacent domains disjoint:", verdict.ok)

# A neighbor can only guess the final color with probability 1/|domain|.
m = metrics(result.domains.palette, result.domains.sizes())
print(f"palette {m['problem_domain_size']}, solution domain >= {m['solution_domain_min']}, "
      f"contingency factor {m['contingency_factor']} "
      f"(~{float(Fraction(m['contingency_factor'])):.1f}, order max_degree)")
print(f"worst-case guessing probability: 1/{m['solution_domain_min']}")
