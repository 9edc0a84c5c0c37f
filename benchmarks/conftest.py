"""Shared infrastructure for the paper-reproduction benchmark suite.

Every bench file regenerates one table or figure from the paper's
evaluation (Section 5).  Workloads are the Table-2 benchmark profiles at
``1/REPRO_SCALE`` of the paper's constraint counts (default 1/128 here —
pure Python cannot solve million-LOC systems; all algorithms see the same
inputs so the *relative* results survive).

Run with::

    pytest benchmarks/ --benchmark-only

Solver runs are cached in a session-wide store so derived tables (memory,
figures, counters) reuse the timed runs, and every paper-style table is
printed in the terminal summary at the end of the session.
"""

import json
import os
import sys
from typing import Dict, List, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import pytest

from repro.metrics.reporting import Table
from repro.preprocess.ovs import OVSResult, offline_variable_substitution
from repro.solvers.base import BaseSolver
from repro.solvers.registry import make_solver
from repro.workloads import BENCHMARK_ORDER, generate_workload

#: Scale denominator: constraints = paper counts / SCALE_DENOMINATOR.
SCALE_DENOMINATOR = float(os.environ.get("REPRO_SCALE", "128"))
SCALE = 1.0 / SCALE_DENOMINATOR

#: The 9 algorithm configurations of paper Table 3, in table order.
TABLE3_ALGORITHMS = [
    "ht", "pkh", "blq", "lcd", "hcd",
    "ht+hcd", "pkh+hcd", "blq+hcd", "lcd+hcd",
]
#: Table 5/6 configurations (BLQ is already BDD-based, so it is absent).
TABLE5_ALGORITHMS = ["ht", "pkh", "lcd", "hcd", "ht+hcd", "pkh+hcd", "lcd+hcd"]

#: Where the machine-readable perf trajectory lands (one file, overwritten
#: per bench session, committed so PRs can be diffed on numbers).
BENCH_JSON_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_repr.json")

_workload_cache: Dict[str, OVSResult] = {}
_run_cache: Dict[Tuple[str, str, str], BaseSolver] = {}
_tables: List[Table] = []
_bench_records: List[Dict] = []
_extra_records: List[Dict] = []


def workload(name: str) -> OVSResult:
    """Raw profile workload + its OVS reduction, cached per session."""
    result = _workload_cache.get(name)
    if result is None:
        system = generate_workload(name, scale=SCALE, seed=1)
        result = offline_variable_substitution(system)
        _workload_cache[name] = result
    return result


def run_solver(name: str, algorithm: str, pts: str = "bitmap") -> BaseSolver:
    """Solve benchmark ``name`` with ``algorithm``; cached per session.

    Solvers run on the OVS-reduced system, matching the paper ("the
    results reported are for these reduced constraint files").
    """
    key = (name, algorithm, pts)
    solver = _run_cache.get(key)
    if solver is None:
        solver = make_solver(workload(name).reduced, algorithm, pts=pts)
        solver.solve()
        _run_cache[key] = solver
        _bench_records.append(
            {
                "workload": name,
                "solver": solver.full_name,
                "pts": pts,
                "wall_seconds": solver.stats.solve_seconds,
                "pts_memory_bytes": solver.stats.pts_memory_bytes,
                "graph_memory_bytes": solver.stats.graph_memory_bytes,
                "peak_bytes": solver.stats.total_memory_bytes,
            }
        )
    return solver


def emit_table(table: Table) -> None:
    """Queue a paper-style table for the end-of-session summary."""
    _tables.append(table)


def record_extra(record: Dict) -> None:
    """Attach a non-solver measurement (e.g. certifier timings) to the
    session's BENCH_repr.json under the ``extra`` key.  Records need a
    ``kind`` field so downstream diffs can group them."""
    _extra_records.append(record)


def pytest_sessionfinish(session):  # pragma: no cover - hook
    """Dump every timed run as machine-readable JSON so the perf
    trajectory (time and peak bytes per solver/family/workload) can be
    tracked across PRs."""
    if not _bench_records and not _extra_records:
        return
    payload = {
        "scale_denominator": SCALE_DENOMINATOR,
        # Runner shape: the bench JSON states the core count its numbers
        # were measured on, next to the scale.
        "cpu_count": os.cpu_count() or 1,
        "records": sorted(
            _bench_records,
            key=lambda r: (r["workload"], r["solver"], r["pts"]),
        ),
    }
    if _extra_records:
        payload["extra"] = sorted(
            _extra_records,
            key=lambda r: (r.get("kind", ""), r.get("workload", ""),
                           r.get("solver", "")),
        )
    with open(BENCH_JSON_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def pytest_terminal_summary(terminalreporter):  # pragma: no cover - hook
    if not _tables:
        return
    terminalreporter.write_sep(
        "=",
        f"paper reproduction tables (scale 1/{SCALE_DENOMINATOR:g} of Table 2 counts)",
    )
    for table in _tables:
        terminalreporter.write_line("")
        terminalreporter.write_line(table.render())
    terminalreporter.write_line("")


@pytest.fixture(scope="session")
def benchmarks() -> List[str]:
    return list(BENCHMARK_ORDER)
