# Forest decomposition is the perfectly private labeling problem: orient
# every edge (toward the higher id, or toward higher peeling layers), then
# each vertex privately deals distinct forest numbers to its outgoing edges.
# No communication shapes the choice, and every distinct deal is valid, so
# the contingency factor is exactly 1.

from genlabel import GeneratorSpec, generate
from genlabel.decomposition import forest_decomposition, h_partition
from genlabel.verify import check_forest_labeling, metrics

graph = generate(GeneratorSpec("gnp", 512, p=8 / 511, seed=2))
labeling, report = forest_decomposition(graph, mode="id", seed=9)
print(f"id orientation: {labeling.forest_count} forests in "
      f"{report.comm_rounds} communication rounds")
verdict = check_forest_labeling(graph, labeling.edge_labels, labeling.assigner,
                                labeling.forest_count)
print("all label classes acyclic, per-vertex labels distinct:", verdict.ok)
# every edge may take any of the forest_count labels
m = metrics(labeling.forest_count, [labeling.forest_count] * graph.m)
print(f"per-edge view: palette {m['problem_domain_size']}, solution domain "
      f"{m['solution_domain_min']}, contingency factor {m['contingency_factor']}")

# With a known arboricity bound the peeling partition drops the forest count
# from max_degree to floor((2+eps)*a), independent of the degrees.
sparse = generate(GeneratorSpec("forest-union", 512, a=2, seed=4))
hp = h_partition(sparse, a=2, eps=1.0)
print(f"\npeeling partition of a union of 2 forests: {hp.layer_count} layers, "
      f"out-degree <= {hp.orientation.max_out_degree}")
labeling2, report2 = forest_decomposition(sparse, mode="h-partition", a=2, eps=1.0, seed=4)
print(f"forest count {labeling2.forest_count} vs max_degree "
      f"{sparse.max_degree}; classes acyclic: "
      f"{check_forest_labeling(sparse, labeling2.edge_labels, labeling2.assigner, labeling2.forest_count).ok}")
