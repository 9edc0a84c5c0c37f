"""Exports: JSON solutions and Graphviz constraint-graph dumps.

Interchange glue for downstream tools: a solved system can be shipped as
JSON (stable, name-keyed) and the constraint graph inspected visually —
the first thing one reaches for when debugging a pointer-analysis client.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as encode_string
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, TextIO, Tuple

from repro.analysis.solution import PointsToSolution
from repro.constraints.model import ConstraintKind, ConstraintSystem


class PointeeNames:
    """Pointee sets rendered as sorted names, once per distinct set object.

    A :class:`PointsToSolution` hands every variable with the same set
    one shared frozenset, so a renderer going through this helper sorts
    and name-maps each distinct set once instead of once per variable.
    Every memo entry holds its set, so no keyed ``id()`` is reused while
    the helper is alive.
    """

    def __init__(self, name_of: Callable[[int], str]) -> None:
        self._name_of = name_of
        self._memo: Dict[int, Tuple[FrozenSet[int], List[str], str]] = {}

    def _entry(self, pointees: FrozenSet[int]) -> Tuple[FrozenSet[int], List[str], str]:
        entry = self._memo.get(id(pointees))
        if entry is None:
            names = sorted(map(self._name_of, pointees))
            entry = self._memo[id(pointees)] = (
                pointees, names, "{" + ", ".join(names) + "}",
            )
        return entry

    def names(self, pointees: FrozenSet[int]) -> List[str]:
        """The sorted pointee names (shared: do not mutate)."""
        return self._entry(pointees)[1]

    def text(self, pointees: FrozenSet[int]) -> str:
        """The names as ``{a, b}``, the CLI's text form."""
        return self._entry(pointees)[2]


def solution_text_lines(
    system: ConstraintSystem,
    solution: PointsToSolution,
    include_empty: bool = False,
) -> Iterator[str]:
    """``name -> {pointee, ...}`` per variable, the ``repro solve`` text."""
    text = PointeeNames(system.name_of).text
    for var in range(system.num_vars):
        pointees = solution.points_to(var)
        if pointees or include_empty:
            yield f"{system.name_of(var)} -> {text(pointees)}"


def solution_to_json(
    system: ConstraintSystem,
    solution: PointsToSolution,
    include_empty: bool = False,
    indent: Optional[int] = 2,
) -> str:
    """Serialize a solution as name-keyed JSON.

    Layout::

        {"num_vars": 7, "points_to": {"p": ["x", "y"], ...}}

    The text equals ``json.dumps(doc, indent=indent, sort_keys=True)``,
    but each distinct pointee list is encoded once and spliced in at its
    nesting depth: with an indent, ``json`` falls back to its pure-Python
    encoder, which would otherwise re-encode every shared list per
    variable.
    """
    names = PointeeNames(system.name_of).names
    newline, pad, comma = ("", "", ", ") if indent is None else ("\n", " " * indent, ",")
    nested = newline + 2 * pad
    encoded: Dict[int, str] = {}  # keyed by list id; `names` holds each list
    points_to: Dict[str, str] = {}
    for var in range(system.num_vars):
        pointees = solution.points_to(var)
        if pointees or include_empty:
            listing = names(pointees)
            text = encoded.get(id(listing))
            if text is None:
                text = encoded[id(listing)] = json.dumps(
                    listing, indent=indent
                ).replace("\n", nested)
            points_to[system.name_of(var)] = text
    parts = ["{", newline, pad, f'"num_vars": {system.num_vars}', comma,
             newline, pad, '"points_to": ']
    if points_to:
        separator = "{" + nested
        for name, text in sorted(points_to.items()):
            parts += (separator, encode_string(name), ": ", text)
            separator = comma + nested
        parts += (newline, pad, "}")
    else:
        parts.append("{}")
    parts += (newline, "}")
    return "".join(parts)


def solution_from_json(text: str, system: ConstraintSystem) -> PointsToSolution:
    """Inverse of :func:`solution_to_json` against the same system."""
    data = json.loads(text)
    index = {name: node for node, name in enumerate(system.names)}
    mapping = {
        index[var]: [index[loc] for loc in locs]
        for var, locs in data["points_to"].items()
    }
    return PointsToSolution(
        mapping, system.num_vars, system.names, num_locs=system.num_vars
    )


_EDGE_STYLE = {
    ConstraintKind.COPY: "",
    ConstraintKind.LOAD: ' [style=dashed, label="load"]',
    ConstraintKind.STORE: ' [style=dotted, label="store"]',
}


def constraint_graph_dot(
    system: ConstraintSystem,
    solution: Optional[PointsToSolution] = None,
    max_nodes: int = 200,
) -> str:
    """Render the (initial) constraint graph as Graphviz ``dot`` text.

    Copy constraints are solid edges; complex constraints dash/dot toward
    the dereferenced variable.  When a solution is supplied, node labels
    carry their points-to sets.  Output is truncated at ``max_nodes``
    mentioned nodes to stay plottable.
    """
    lines = ["digraph constraints {", "  rankdir=LR;", "  node [shape=box];"]
    mentioned: set = set()

    def name(node: int) -> str:
        mentioned.add(node)
        return f'"{system.name_of(node)}"'

    for constraint in system.constraints:
        if len(mentioned) > max_nodes:
            lines.append(f'  "..." [label="(truncated at {max_nodes} nodes)"];')
            break
        kind = constraint.kind
        if kind is ConstraintKind.BASE:
            lines.append(
                f"  {name(constraint.src)} -> {name(constraint.dst)}"
                ' [style=bold, label="&", dir=back];'
            )
        elif kind is ConstraintKind.COPY:
            lines.append(f"  {name(constraint.src)} -> {name(constraint.dst)};")
        elif kind is ConstraintKind.LOAD:
            suffix = f"+{constraint.offset}" if constraint.offset else ""
            lines.append(
                f"  {name(constraint.src)} -> {name(constraint.dst)}"
                f' [style=dashed, label="load{suffix}"];'
            )
        else:
            suffix = f"+{constraint.offset}" if constraint.offset else ""
            lines.append(
                f"  {name(constraint.dst)} -> {name(constraint.src)}"
                f' [style=dotted, label="store{suffix}", dir=back];'
            )

    if solution is not None:
        text = PointeeNames(system.name_of).text
        for node in sorted(mentioned):
            pointees = solution.points_to(node)
            if pointees:
                label = system.name_of(node) + "\\n" + text(pointees)
                lines.append(f'  "{system.name_of(node)}" [label="{label}"];')

    lines.append("}")
    return "\n".join(lines)


def write_dot(system: ConstraintSystem, stream: TextIO, **kwargs) -> None:
    """Write :func:`constraint_graph_dot` output to a stream."""
    stream.write(constraint_graph_dot(system, **kwargs))
    stream.write("\n")
