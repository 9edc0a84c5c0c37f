"""Plain-text table formatting for the benchmark harness.

The benches print tables in the same row/column layout as the paper's, so
a reproduction run can be eyeballed against the original numbers.  No
external dependencies: output is monospace-aligned text.
"""

from __future__ import annotations

import math
from typing import List, Mapping, Sequence, Union

Cell = Union[str, int, float, None]


def format_opt_summary(stats: Mapping[str, object]) -> str:
    """One-line rendering of the ``opt_*`` counters in a stats dict.

    Returns the empty string when the run had no offline stage, so
    callers can print the result unconditionally-if-truthy.
    """
    if "opt_stage" not in stats:
        return ""
    seconds = float(stats.get("opt_offline_seconds", 0.0))
    bound = "" if stats.get("opt_converged", True) else " (stopped at the round bound)"
    return (
        f"{stats['opt_stage']}: {stats['opt_vars_merged']} vars merged, "
        f"{stats['opt_locations_merged']} locations merged, "
        f"{stats['opt_constraints_deleted']} constraints deleted, "
        f"{stats['opt_passes']} passes{bound}, {seconds:.3f}s offline"
    )


def format_ctx_summary(stats: Mapping[str, object]) -> str:
    """One-line rendering of the ``ctx_*`` counters in a stats dict.

    Returns the empty string when the run was context-insensitive
    (``--k-cs 0``), so callers can print the result
    unconditionally-if-truthy.
    """
    if not stats.get("ctx_k"):
        return ""
    seconds = float(stats.get("ctx_offline_seconds", 0.0))
    return (
        f"k={stats['ctx_k']}: {stats['ctx_contexts_created']} contexts, "
        f"{stats['ctx_vars_cloned']} vars cloned over "
        f"{stats['ctx_functions_cloned']}/{stats['ctx_functions_total']} functions, "
        f"{stats['ctx_shared_nodes']} shared nodes, "
        f"{stats['ctx_indirect_sites_specialized']}/{stats['ctx_indirect_sites']} "
        f"indirect sites specialized "
        f"({stats['ctx_indirect_expansions']} expansions), "
        f"{stats['ctx_constraints_before']} -> {stats['ctx_constraints_after']} "
        f"constraints, {seconds:.3f}s offline"
    )


def format_seconds(value: float) -> str:
    """Seconds with paper-style precision (two decimals, comma thousands)."""
    return f"{value:,.2f}"


def format_ratio(value: float) -> str:
    return f"{value:.1f}x"


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean, the right average for ratios; 0.0 for empty input."""
    cleaned = [v for v in values if v > 0]
    if not cleaned:
        return 0.0
    return math.exp(sum(math.log(v) for v in cleaned) / len(cleaned))


class Table:
    """A printable table with a title, column headers and aligned cells.

    >>> t = Table("demo", ["alg", "time"])
    >>> t.add_row(["lcd", 1.25])
    >>> print(t.render())  # doctest: +SKIP
    """

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add_row(self, cells: Sequence[Cell]) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append([self._format(cell) for cell in cells])

    @staticmethod
    def _format(cell: Cell) -> str:
        if cell is None:
            return "-"
        if isinstance(cell, bool):
            return str(cell)
        if isinstance(cell, int):
            return f"{cell:,}"
        if isinstance(cell, float):
            return f"{cell:,.2f}"
        return str(cell)

    def render(self) -> str:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [f"== {self.title} =="]
        header = "  ".join(c.ljust(widths[i]) for i, c in enumerate(self.columns))
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append(
                "  ".join(
                    cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i])
                    for i, cell in enumerate(row)
                )
            )
        return "\n".join(lines)

    def print(self) -> None:  # pragma: no cover - console side effect
        print()
        print(self.render())
        print()
