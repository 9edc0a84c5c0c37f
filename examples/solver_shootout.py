"""Solver shoot-out on a paper benchmark profile.

Runs every algorithm configuration from the paper's Table 3 on one
synthetic benchmark workload and prints solve time alongside the
machine-independent Section 5.3 counters (propagations, nodes searched,
nodes collapsed).  All algorithms are asserted to agree.

Run:  python examples/solver_shootout.py [benchmark] [scale-denominator]
      e.g. python examples/solver_shootout.py wine 128
"""

import sys

from repro.metrics.reporting import Table
from repro.preprocess import preprocess_system
from repro.solvers.registry import PAPER_ALGORITHMS, make_solver
from repro.workloads import generate_workload


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "emacs"
    denominator = float(sys.argv[2]) if len(sys.argv) > 2 else 128.0

    system = generate_workload(benchmark, scale=1.0 / denominator, seed=1)
    print(f"benchmark {benchmark!r} at 1/{denominator:g} scale: "
          f"{system.num_vars} vars, {len(system)} constraints")

    ovs = preprocess_system(system, "ovs")
    print(
        f"OVS: {len(system)} -> {len(ovs.reduced)} constraints "
        f"({ovs.reduction_ratio:.0%} reduction, {ovs.offline_seconds*1000:.0f} ms)"
    )

    table = Table(
        f"Table-3-style shoot-out on {benchmark}",
        ["algorithm", "time (s)", "propagations", "searched", "collapsed"],
    )
    reference = None
    for algorithm in ["naive"] + PAPER_ALGORITHMS:
        solver = make_solver(ovs.reduced, algorithm)
        solution = ovs.expand(solver.solve())
        if reference is None:
            reference = solution
        assert solution == reference, f"{algorithm} disagrees with the baseline"
        table.add_row(
            [
                solver.full_name,
                solver.stats.solve_seconds,
                solver.stats.propagations,
                solver.stats.nodes_searched,
                solver.stats.nodes_collapsed,
            ]
        )
    table.print()
    print("all algorithms agree: OK")


if __name__ == "__main__":
    main()
