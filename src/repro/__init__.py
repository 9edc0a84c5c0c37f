"""repro — inclusion-based pointer analysis with Lazy & Hybrid Cycle Detection.

A from-scratch reproduction of Hardekopf & Lin, *"The Ant and the
Grasshopper: Fast and Accurate Pointer Analysis for Millions of Lines of
Code"* (PLDI 2007): five inclusion-based (Andersen-style) constraint
solvers — the paper's LCD and HCD plus the Heintze-Tardieu, Pearce et al.
and Berndl et al. baselines — over a shared constraint model, with both
sparse-bitmap and BDD points-to set representations, Offline Variable
Substitution pre-processing, a C-subset front-end, and the paper's full
benchmark harness.

Quickstart::

    from repro import ConstraintBuilder, solve

    b = ConstraintBuilder()
    p, q, x = b.var("p"), b.var("q"), b.var("x")
    b.address_of(p, x)   # p = &x
    b.assign(q, p)       # q = p
    solution = solve(b.build(), algorithm="lcd+hcd")
    assert solution.points_to(q) == {x}
"""

from repro.analysis import AliasAnalysis, PointsToSolution, build_call_graph
from repro.constraints import (
    Constraint,
    ConstraintBuilder,
    ConstraintKind,
    ConstraintSystem,
    loads_constraints,
    dumps_constraints,
)
from repro.preprocess import hcd_offline_analysis, preprocess_system
from repro.solvers import available_solvers, make_solver, solve

__version__ = "1.0.0"

__all__ = [
    "Constraint",
    "ConstraintKind",
    "ConstraintSystem",
    "ConstraintBuilder",
    "loads_constraints",
    "dumps_constraints",
    "PointsToSolution",
    "AliasAnalysis",
    "build_call_graph",
    "preprocess_system",
    "hcd_offline_analysis",
    "available_solvers",
    "make_solver",
    "solve",
    "__version__",
]
