"""Correctness oracles that share no code with the pipeline they judge.

- A ``repro check`` output must pass ``validate_sarif``, report every
  seeded ``/* BUG: <rule> */`` marker of its source (read straight from
  the SARIF JSON), and hold exactly the number of findings recorded for
  its unit in ``golden.json``.
- A ``repro solve`` output is parsed back into a solution, which the
  independent certifier (``repro.verify.certifier``, no solver code)
  must ACCEPT against the input constraints.
"""

from __future__ import annotations

import io
import json
import os
import time
from typing import Dict, List, Tuple

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def load_golden() -> Dict[str, Dict[str, int]]:
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def check_sarif(source_path: str, sarif_path: str) -> Tuple[int, List[Tuple[str, int]]]:
    """Validate one SARIF output; return ``(findings, missed markers)``.

    Raises ``ValueError`` (``SarifValidationError`` included) when the
    output is missing, is not JSON, or is not valid SARIF.
    """
    from repro.checkers import validate_sarif
    from repro.workloads.cgen import expected_bug_findings

    with open(sarif_path, encoding="utf-8") as handle:
        doc = json.load(handle)
    validate_sarif(doc)
    results = doc["runs"][0]["results"]
    reported = set()
    for result in results:
        for location in result.get("locations", []):
            region = location["physicalLocation"].get("region", {})
            reported.add((result["ruleId"], region.get("startLine", 0)))
    with open(source_path, encoding="utf-8") as handle:
        markers = expected_bug_findings(handle.read())
    return len(results), [m for m in markers if m not in reported]


def certify_output(cons_path: str, output_path: str) -> Tuple[bool, float]:
    """Certify a printed ``repro solve`` solution; ``(accepted, seconds)``.

    The seconds cover the certifier alone, not reading and parsing.
    """
    from repro.analysis.solution import PointsToSolution
    from repro.constraints.parser import read_constraints
    from repro.verify.certifier import certify

    with open(cons_path, encoding="utf-8") as handle:
        system = read_constraints(io.StringIO(handle.read()))
    index = {system.name_of(var): var for var in range(system.num_vars)}
    if len(index) != system.num_vars:
        raise ValueError(f"{cons_path}: variable names are not unique")
    points_to: Dict[int, List[int]] = {}
    with open(output_path, encoding="utf-8") as handle:
        for line in handle:
            pointer, _, rest = line.rstrip("\n").partition(" -> ")
            if not rest.startswith("{") or not rest.endswith("}"):
                raise ValueError(f"{output_path}: malformed line {line!r}")
            body = rest[1:-1]
            points_to[index[pointer]] = (
                [index[name] for name in body.split(", ")] if body else []
            )
    solution = PointsToSolution(
        points_to, system.num_vars, names=system.names,
        num_locs=system.num_vars,
    )
    began = time.perf_counter()
    report = certify(system, solution)
    return report.ok, time.perf_counter() - began
