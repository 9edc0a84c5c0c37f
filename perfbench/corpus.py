"""Input generation for the end-to-end benchmark.

Three workloads, each a fixed set of inputs written into a work
directory:

- ``check-k0``: 60 ``cgen`` translation units, sizes log-spaced from
  about 100 to 3,000 lines, 3 seeded bugs each, a small share with a
  spliced pthread worker (a lockset race) or a ``getenv`` -> ``system``
  taint flow.  Checked at ``--k-cs 0``.
- ``check-k1``: 20 ``cgen`` translation units, 150 to 800 lines, whose
  calls through the global function pointer ``gfp`` make k-CFA clone
  per indirect site; kept below the ``n_functions`` ~ 40 expansion
  cliff.  Checked at ``--k-cs 1``.
- ``solve-cons``: the synthetic ``wine`` and ``linux`` profiles at 1/32
  scale, generator seeds 1 and 2 each, written as ``.cons`` files for
  ``repro solve``.

The inputs do not depend on the run's ``--seed``.  The check corpora's findings totals are
recorded once in ``golden.json`` (see ``record.py``): a fixed corpus is
what makes a change in that total mean a change in precision.  The solve
inputs are fixed because solve time varies by up to 1.4x between
generator seeds of one profile, more than a run-to-run bound allows.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import List

from repro.constraints.parser import write_constraints
from repro.workloads import generate_workload
from repro.workloads.cgen import generate_c_program

#: cgen seeds of the check corpora are ``CORPUS_SEED + index``.
CORPUS_SEED = 1000
#: cgen's per-function statement count; at 12 a function is ~24 lines.
STATEMENTS_PER_FN = 12
LINES_PER_FN = 24
SEEDED_BUGS = 3
#: Every RACE_EVERY-th check-k0 unit gets one spliced pthread worker,
#: every TAINT_EVERY-th (offset by 2) one taint flow.  The race client
#: grows superlinearly with workers x unit size, so the share stays small.
RACE_EVERY = 8
TAINT_EVERY = 6
SOLVE_PROFILES = ("wine", "linux")
SOLVE_SCALE = 32
SOLVE_SEEDS = (1, 2)


@dataclass(frozen=True)
class Input:
    """One benchmark input: the file, its ``repro`` argv, its size."""

    name: str
    path: str
    argv: List[str]
    lines: int
    kind: str  # "check" | "solve"
    k_cs: int = 0
    output: str = ""


def _log_spaced(count: int, low: float, high: float) -> List[int]:
    ratio = high / low
    return [round(low * ratio ** (i / (count - 1))) for i in range(count)]


def _race_idiom(tag: str) -> "tuple[List[str], List[str]]":
    """A pthread worker racing main on ``rs_slot``; ``rs_safe`` is
    always accessed under ``rs_mu`` and stays silent (modeled on
    ``tests/corpus/buggy/race_lockset.c``)."""
    decls = [
        f"char *rs_safe{tag};",
        f"char *rs_slot{tag};",
        f"char *rs_val{tag};",
        f"int rs_mu{tag};",
        "",
        f"void rs_worker{tag}(void *arg) {{",
        f"    pthread_mutex_lock(&rs_mu{tag});",
        f"    rs_safe{tag} = rs_val{tag};",
        f"    pthread_mutex_unlock(&rs_mu{tag});",
        f"    rs_slot{tag} = rs_val{tag}; /* BUG: race */",
        "}",
        "",
    ]
    in_main = [
        f"    pthread_create(0, 0, &rs_worker{tag}, 0);",
        f"    pthread_mutex_lock(&rs_mu{tag});",
        f"    rs_safe{tag} = rs_val{tag};",
        f"    pthread_mutex_unlock(&rs_mu{tag});",
        f"    rs_slot{tag} = rs_val{tag};",
    ]
    return decls, in_main


def _taint_idiom(tag: str) -> "tuple[List[str], List[str]]":
    """Untrusted environment data reaching ``system`` through a helper's
    parameter and return (modeled on ``taint_via_copy.c``)."""
    decls = [
        f"char *tf_route{tag}(char *s) {{",
        "    return s;",
        "}",
        "",
        f"int tf_run{tag}() {{",
        f"    char *raw{tag};",
        f"    char *cmd{tag};",
        f'    raw{tag} = getenv("CMD");',
        f"    cmd{tag} = tf_route{tag}(raw{tag});",
        f"    system(cmd{tag}); /* BUG: taint-flow */",
        "    return 0;",
        "}",
        "",
    ]
    return decls, [f"    tf_run{tag}();"]


def _splice(source: str, idioms: List["tuple[List[str], List[str]]"]) -> str:
    """Insert idiom functions before ``main`` and their calls at the end
    of ``main`` (after every cgen call, so the spawned thread races only
    with the idiom's own accesses)."""
    if not idioms:
        return source
    lines = source.split("\n")
    main_at = lines.index("int main(int argc, char **argv) {")
    return_at = len(lines) - 1 - lines[::-1].index("    return 0;")
    decls = [line for idiom in idioms for line in idiom[0]]
    calls = [line for idiom in idioms for line in idiom[1]]
    return "\n".join(
        lines[:main_at] + decls + lines[main_at:return_at] + calls + lines[return_at:]
    )


def check_units(workload: str) -> "List[tuple[str, str]]":
    """The fixed ``(name, source)`` corpus of a check workload."""
    if workload == "check-k0":
        sizes = _log_spaced(60, 100, 3000)
    elif workload == "check-k1":
        sizes = _log_spaced(20, 150, 800)
    else:
        raise ValueError(f"not a check workload: {workload}")
    units = []
    for index, lines in enumerate(sizes):
        n_functions = max(2, round((lines - 40) / LINES_PER_FN))
        source = generate_c_program(
            seed=CORPUS_SEED + index,
            n_functions=n_functions,
            statements_per_fn=STATEMENTS_PER_FN,
            seed_bugs=SEEDED_BUGS,
        )
        idioms = []
        if workload == "check-k0":
            if index % RACE_EVERY == 0:
                idioms.append(_race_idiom(str(index)))
            if index % TAINT_EVERY == 2:
                idioms.append(_taint_idiom(str(index)))
        units.append((f"tu{index:03d}", _splice(source, idioms)))
    return units


def write_inputs(workload: str, workdir: str) -> List[Input]:
    """Write the workload's inputs under ``workdir`` and describe them."""
    inputs = []
    if workload in ("check-k0", "check-k1"):
        k_cs = 1 if workload == "check-k1" else 0
        for name, source in check_units(workload):
            path = os.path.join(workdir, name + ".c")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(source)
            output = os.path.join(workdir, name + ".sarif")
            argv = [
                "check", path, "--format", "sarif", "-o", output,
                "--k-cs", str(k_cs),
            ]
            inputs.append(
                Input(name, path, argv, source.count("\n") + 1, "check",
                      k_cs, output)
            )
    elif workload == "solve-cons":
        for profile in SOLVE_PROFILES:
            for seed in SOLVE_SEEDS:
                system = generate_workload(
                    profile, scale=1.0 / SOLVE_SCALE, seed=seed
                )
                name = f"{profile}-s{seed}"
                path = os.path.join(workdir, name + ".cons")
                with open(path, "w", encoding="utf-8") as handle:
                    write_constraints(system, handle)
                with open(path, encoding="utf-8") as handle:
                    lines = sum(1 for _ in handle)
                output = os.path.join(workdir, name + ".out")
                inputs.append(
                    Input(name, path, ["solve", path], lines, "solve", 0, output)
                )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inputs


def log_log_slope(xs: List[float], ys: List[float]) -> float:
    """Least-squares slope of ``log y`` against ``log x`` over the pairs
    with ``y > 0`` (0.0 when fewer than two remain)."""
    points = [(math.log(x), math.log(y)) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len(points) < 2:
        return 0.0
    mean_x = sum(p[0] for p in points) / len(points)
    mean_y = sum(p[1] for p in points) / len(points)
    var = sum((p[0] - mean_x) ** 2 for p in points)
    if var == 0:
        return 0.0
    return sum((p[0] - mean_x) * (p[1] - mean_y) for p in points) / var
