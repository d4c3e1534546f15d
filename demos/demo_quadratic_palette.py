# The deterministic pipeline: start from the id-coloring, shrink the palette
# with one cover-free reduction per round, and in the last round keep *all*
# uncovered elements instead of one.  Every vertex ends with at least
# max_degree private options inside a palette of roughly (3*max_degree)^2.

from genlabel import GeneratorSpec, generate, generic_delta2_coloring, log_star
from genlabel.verify import check_domains_disjoint, metrics

# a long path keeps max_degree tiny, so several reduction rounds are needed
graph = generate(GeneratorSpec("path", 4096))
result = generic_delta2_coloring(graph)

print(f"n={graph.n}, max_degree={graph.max_degree}")
print("reduction schedule (degree bound, prime):", result.params["reduction_steps"])
print(f"final prime q={result.domains.stride}, palette {result.domains.palette}")
print(f"communication rounds: {result.report.comm_rounds} "
      f"(log* n = {log_star(graph.n)})")

sizes = result.domains.sizes()
print(f"domain sizes: min={min(sizes)} max={max(sizes)} "
      f"(guarantee: >= max_degree = {graph.max_degree})")
print("adjacent domains disjoint:", check_domains_disjoint(graph, result.domains).ok)

m = metrics(result.domains.palette, result.domains.sizes())
print(f"contingency factor {m['contingency_factor']} (order max_degree)")

# The same call on a bushier graph needs no reductions at all: the id palette
# already fits under the final prime's cube.
bushy = generate(GeneratorSpec("random-tree", 4096, max_deg=10, seed=1))
direct = generic_delta2_coloring(bushy)
print(f"\nbushy tree: max_degree={bushy.max_degree}, "
      f"schedule={direct.params['reduction_steps']}, "
      f"rounds={direct.report.comm_rounds}, palette={direct.domains.palette}")
