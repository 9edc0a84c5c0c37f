"""Solver registry: names to factories.

The nine algorithm configurations of paper Table 3 (plus the naive
Figure-1 baseline) are addressed by name::

    solve(system, "lcd+hcd")          # the paper's headline algorithm
    solve(system, "ht", pts="bdd")    # HT with BDD points-to sets

A ``+hcd`` suffix composes Hybrid Cycle Detection with the base
algorithm, exactly as in the paper's evaluation.
"""

from __future__ import annotations

from typing import Dict, List, Type

from repro.analysis.solution import PointsToSolution
from repro.constraints.model import ConstraintSystem
from repro.solvers.base import BaseSolver
from repro.solvers.blq import BLQSolver
from repro.solvers.hcd import HCDSolver
from repro.solvers.ht import HTSolver
from repro.solvers.lcd import LCDSolver
from repro.solvers.naive import NaiveSolver
from repro.solvers.pkh import PKHSolver
from repro.solvers.pkh03 import PKH03Solver
from repro.solvers.steensgaard import SteensgaardSolver
from repro.solvers.wave import WaveSolver

_BASE_SOLVERS: Dict[str, Type[BaseSolver]] = {
    "naive": NaiveSolver,
    "ht": HTSolver,
    "pkh": PKHSolver,
    # Extension: Pearce et al.'s original 2003 algorithm (per-edge cycle
    # detection via dynamic topological ordering) — the "too aggressive"
    # design point the paper's Discussion refers to.
    "pkh03": PKH03Solver,
    "blq": BLQSolver,
    "lcd": LCDSolver,
    "hcd": HCDSolver,
    # Extension: Wave Propagation (Pereira & Berlin, CGO 2009), the
    # follow-on work built on this paper's foundations.
    "wave": WaveSolver,
}

#: Analyses with *different precision* than inclusion-based analysis:
#: valid solver names, but never part of the equivalence-checked set.
_PRECISION_BASELINES: Dict[str, Type[BaseSolver]] = {
    "steensgaard": SteensgaardSolver,
}

#: The algorithm configurations evaluated in the paper (Table 3 order).
PAPER_ALGORITHMS: List[str] = [
    "ht",
    "pkh",
    "blq",
    "lcd",
    "hcd",
    "ht+hcd",
    "pkh+hcd",
    "blq+hcd",
    "lcd+hcd",
]


def available_solvers() -> List[str]:
    """Inclusion-based solver names (bases plus ``+hcd`` combinations).

    Every name returned here computes the *identical* solution; the
    precision baselines (``steensgaard``) are accepted by
    :func:`make_solver` but deliberately excluded.
    """
    names = sorted(_BASE_SOLVERS)
    names.extend(
        f"{base}+hcd" for base in sorted(_BASE_SOLVERS) if base != "hcd"
    )
    return names


def all_solvers() -> List[str]:
    """Every accepted name, including the precision baselines."""
    return available_solvers() + sorted(_PRECISION_BASELINES)


def make_solver(
    system: ConstraintSystem,
    algorithm: str = "lcd+hcd",
    pts: str = "bitmap",
    worklist: str = "divided-lrf",
    sanitize: bool = False,
    opt: str = "none",
    k_cs: int = 0,
) -> BaseSolver:
    """Instantiate a solver by name (without running it).

    ``sanitize`` installs the :mod:`repro.verify.sanitizer` invariant
    checks at the solver's collapse/propagate boundaries.  ``opt``
    selects the offline optimization stage
    (:data:`repro.preprocess.hvn.OPT_STAGES`) run on the constraints
    before solving; solutions are transparently expanded
    back to the original variable space.  ``k_cs`` selects k-CFA context
    sensitivity (:mod:`repro.contexts`): the system is cloned per
    bounded call string before the ``opt`` stage, and the solution is
    projected back onto the base variables — composable with every
    algorithm, points-to family and optimization stage.
    """
    name = algorithm.lower().strip()
    hcd = False
    if name.endswith("+hcd"):
        hcd = True
        name = name[: -len("+hcd")]
    solver_cls = _BASE_SOLVERS.get(name)
    if solver_cls is None and not hcd:
        solver_cls = _PRECISION_BASELINES.get(name)
    if solver_cls is None:
        known = ", ".join(all_solvers())
        raise ValueError(f"unknown algorithm {algorithm!r}; known: {known}")
    if solver_cls is HCDSolver and hcd:
        hcd = False  # "hcd+hcd" is just hcd
    return solver_cls(
        system, pts=pts, hcd=hcd, worklist=worklist, sanitize=sanitize,
        opt=opt, k_cs=k_cs,
    )


def solve(
    system: ConstraintSystem,
    algorithm: str = "lcd+hcd",
    pts: str = "bitmap",
    worklist: str = "divided-lrf",
    sanitize: bool = False,
    opt: str = "none",
    k_cs: int = 0,
) -> PointsToSolution:
    """One-call API: build the named solver and return its solution."""
    return make_solver(
        system, algorithm, pts=pts, worklist=worklist,
        sanitize=sanitize, opt=opt, k_cs=k_cs,
    ).solve()
