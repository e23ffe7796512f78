"""Hypergraph conflict statistics and the staleness budget they buy.

Each term of a decomposable objective touches a few coordinates (its
hyperedge).  How much asynchrony an instance tolerates is governed by how
often random hyperedges collide, summarized by the conflict-graph degree
statistics printed here.
"""

import numpy as np

import asyncopt as ao
from asyncopt.hypergraph import (
    conflict_stats,
    intersection_probability_bound,
    tau_bound_comparison,
)


def describe(name, obj):
    st = conflict_stats(obj.A, obj.d)  # the term pattern is the hyperedges
    tau_avg, tau_bip = tau_bound_comparison(st, obj.n)
    print(f"\n{name}: n={obj.n} terms over d={obj.d} coordinates")
    print(f"  avg conflict degree:  {st.avg_conflict_degree:.3f}")
    print(f"  max conflict degree:  {st.max_conflict_degree}")
    print(f"  max edge size:        {st.max_left_degree}")
    print(f"  max coordinate use:   {st.max_right_degree}")
    print(f"  P(two edges collide) <= {intersection_probability_bound(st, obj.n):.4f}")
    print(f"  tau budget (avg conflict degree): {tau_avg:.1f}")
    print(f"  tau budget (degree product):      {tau_bip:.1f}")


def main():
    # sparse regression design
    data = ao.gen_synthetic(
        ao.SyntheticSpec(n=5000, d=400, nnz=5, label_model="linear", seed=0),
        l2_reg=0.1,
    )
    describe("synthetic sparse regression", ao.least_squares_objective(data))

    # a random graph's quadratic vertex cover relaxation: one term per edge
    rng = np.random.default_rng(3)
    edges = set()
    while len(edges) < 300:
        u, v = (int(t) for t in rng.integers(0, 150, 2))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    prob = ao.VertexCoverProblem(
        num_vertices=150, edges=np.array(sorted(edges)), beta=1.0
    )
    describe("vertex cover relaxation", ao.vertex_cover_objective(prob))

    print("\nlarger tau budgets mean more samples may safely be in flight "
          "at once before the staleness terms dominate the recursion")


if __name__ == "__main__":
    main()
