"""Benchmark worker: one fresh process that runs a workload's inputs.

Usage: ``python3 perfbench/worker.py JOB.json`` (``run.py`` writes the
job and reads the result file it names).

Untraced (``"trace": 0``), it calls ``repro.cli.main`` once per input
and round, in-process and on one thread, timing each call from
invocation to the closed output file.  Traced (``"trace": 1``), it runs
one round in which each input goes through ``cli.main`` and then through
the same pipeline composed layer by layer from the modules' public
functions; it times every layer and compares the composed result with
the CLI's output.  Every input gets fresh ``ConstraintSystem`` objects,
so the identity-keyed k-CFA expansion cache never answers.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import threading
import time
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

#: Registered checkers that run on the dataflow engine; the rest are the
#: pointer checkers.
DATAFLOW_CHECKERS = ("taint-flow", "race")
SOLVER = "lcd+hcd"  # the CLI defaults: lcd+hcd, --pts bitmap, --opt hu
PTS = "bitmap"
OPT = "hu"
PROBE_LOOPS = 100_000


def probe() -> float:
    """Seconds taken by a fixed pure-Python loop that shares no code with
    ``repro``: the machine's speed at this moment."""
    began = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - began


def _digest(path: str):
    if not os.path.exists(path):
        return None
    sha = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            sha.update(block)
    return sha.hexdigest()


def call_cli(cli, inp: dict) -> dict:
    """One timed ``cli.main`` call: from invocation to the closed output.

    ``probe`` is the mean of the speed probes right before and after it.
    """
    if os.path.exists(inp["output"]):
        os.remove(inp["output"])
    gc.collect()
    before = probe()
    error = None
    rc = None
    with open(os.devnull, "w", encoding="utf-8") as err:
        began = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                if inp["kind"] == "solve":
                    with open(inp["output"], "w", encoding="utf-8") as out:
                        with contextlib.redirect_stdout(out):
                            rc = cli.main(inp["argv"])
                else:
                    rc = cli.main(inp["argv"])
        except Exception as exc:  # a failed verdict, not a failed run
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - began
    if threading.active_count() != 1:
        error = "the pipeline left a thread running"
    return {
        "name": inp["name"],
        "seconds": elapsed,
        "probe": (before + probe()) / 2,
        "rc": rc,
        "error": error,
        "digest": _digest(inp["output"]),
    }


def run_untraced(inputs: List[dict], seconds: float) -> List[dict]:
    """Whole rounds over ``inputs``, in their given order, until ``seconds``."""
    from repro import cli

    verdicts = []
    start = time.perf_counter()
    round_no = 0
    while True:
        for inp in inputs:
            verdicts.append(dict(call_cli(cli, inp), round=round_no))
        round_no += 1
        if time.perf_counter() - start >= seconds:
            return verdicts


class _Layers:
    """Per-input layer timings and counters, keyed by metric name."""

    def __init__(self) -> None:
        self.values: Dict[str, float] = {}

    def timed(self, name: str, func, *args, **kwargs):
        began = time.perf_counter()
        result = func(*args, **kwargs)
        self.values[name] = self.values.get(name, 0.0) + time.perf_counter() - began
        return result

    def count(self, name: str, value: float) -> None:
        self.values[name] = self.values.get(name, 0.0) + value


def _solve_layers(layers: _Layers, system, k_cs: int):
    """contexts -> preprocess -> HCD offline -> solver -> re-expansion
    -> projection, as ``BaseSolver`` composes them for the CLI."""
    from repro.contexts import manager as ctx_manager
    from repro.preprocess.hcd_offline import hcd_offline_analysis
    from repro.preprocess.hvn import preprocess_system
    from repro.solvers.registry import make_solver

    expansion = None
    work = system
    if k_cs:
        cached = [entry[2] for entry in ctx_manager._CACHE]
        expansion = layers.timed(
            "contexts.expand_s", ctx_manager.expand_contexts, system, k_cs
        )
        if any(expansion is hit for hit in cached):
            raise RuntimeError("k-CFA expansion answered from the cache")
        work = expansion.expanded
        layers.count("contexts.constraints_in", len(system))
        layers.count("contexts.constraints_out", len(work))
    pre = layers.timed("preprocess.opt_s", preprocess_system, work, OPT)
    layers.count("preprocess.constraints_out", len(pre.reduced))
    layers.count("preprocess.vars_merged", pre.merged_count())
    layers.timed("preprocess.hcd_s", hcd_offline_analysis, pre.reduced)
    solver = layers.timed(
        "solvers.construct_s", make_solver, pre.reduced, SOLVER, pts=PTS,
        opt="none", k_cs=0,
    )
    # The constructor repeats the HCD offline pass timed just above.
    layers.count("solvers.construct_s", -solver.stats.hcd_offline_seconds)
    solution = layers.timed("solvers.solve_s", solver.solve)
    layers.count("solvers.propagations", solver.stats.propagations)
    layers.count("solvers.nodes_searched", solver.stats.nodes_searched)
    layers.count("solvers.nodes_collapsed", solver.stats.nodes_collapsed)
    layers.count("points_to.memory_bytes", solver.stats.pts_memory_bytes)
    expanded = layers.timed("preprocess.expand_s", pre.expand, solution)
    projected = expanded
    if expansion is not None:
        projected = layers.timed("contexts.project_s", expansion.project, expanded)
    return expansion, expanded, projected


def trace_check(inp: dict, layers: _Layers) -> bool:
    """Compose ``repro check --format sarif`` and compare its results."""
    from repro.checkers import CheckContext, CheckReport, Severity, select_checkers, to_sarif
    from repro.frontend.generator import generate_constraints
    from repro.frontend.parser import parse_translation_unit

    with open(inp["path"], encoding="utf-8") as handle:
        source = handle.read()
    unit = layers.timed("frontend.parse_s", parse_translation_unit, source)
    program = layers.timed(
        "frontend.gen_s", generate_constraints, unit, field_mode="insensitive"
    )
    layers.count("frontend.constraints_out", len(program.system))
    expansion, expanded, projected = _solve_layers(
        layers, program.system, inp["k_cs"]
    )

    def run(names):
        report = CheckReport()
        for info in select_checkers(names):
            report.extend(info.run(check_ctx))
        return report

    check_ctx = layers.timed(
        "checkers.run_s", CheckContext, program.system, projected,
        program=program, path=inp["path"], expansion=expansion,
        expanded_solution=expanded if expansion is not None else None,
    )
    pointer = [
        info.name for info in select_checkers()
        if info.name not in DATAFLOW_CHECKERS
    ]
    report = layers.timed("checkers.run_s", run, pointer)
    flows = layers.timed("dataflow.run_s", run, list(DATAFLOW_CHECKERS))

    def finish():
        report.extend(flows.diagnostics)
        report.finalize()
        return report.filtered(Severity.WARNING)

    final = layers.timed("checkers.run_s", finish)
    for diag in final:
        kind = "dataflow" if diag.rule in DATAFLOW_CHECKERS else "checkers"
        layers.count(f"{kind}.findings", 1)
    rendered = layers.timed(
        "checkers.sarif_s", lambda: json.dumps(to_sarif(final), indent=2)
    )
    doc = json.loads(rendered)
    with open(inp["output"], encoding="utf-8") as handle:
        cli_doc = json.load(handle)
    return doc["runs"][0]["results"] == cli_doc["runs"][0]["results"]


def trace_solve(inp: dict, layers: _Layers, cli_digest: str) -> bool:
    """Compose ``repro solve FILE`` and compare its printed solution."""
    from repro.constraints.parser import read_constraints

    with open(inp["path"], encoding="utf-8") as handle:
        text = handle.read()
    system = layers.timed("constraints.read_s", read_constraints, io.StringIO(text))
    _, _, solution = _solve_layers(layers, system, 0)
    sha = hashlib.sha256()
    name_of = system.name_of
    for var in range(system.num_vars):
        pointees = solution.points_to(var)
        if pointees:
            names = ", ".join(sorted(name_of(p) for p in pointees))
            sha.update(f"{name_of(var)} -> {{{names}}}\n".encode())
    return sha.hexdigest() == cli_digest


def run_traced(inputs: List[dict]) -> "tuple[List[dict], List[dict]]":
    """One round in which every input runs twice, back to back: once
    through ``cli.main`` (the untraced verdict) and once composed layer
    by layer (traced), compared against the verdict's output."""
    from repro import cli

    verdicts = []
    traced = []
    for inp in inputs:
        verdict = dict(call_cli(cli, inp), round=0)
        verdicts.append(verdict)
        layers = _Layers()
        gc.collect()
        began = time.perf_counter()
        error = None
        same = False
        try:
            if inp["kind"] == "check":
                same = trace_check(inp, layers)
            else:
                same = trace_solve(inp, layers, verdict["digest"])
        except Exception as exc:  # reported as a mismatch, not a crash
            error = f"{type(exc).__name__}: {exc}"
        traced.append(
            {
                "name": inp["name"],
                "seconds": time.perf_counter() - began,
                "layers": layers.values,
                "same": same,
                "error": error,
            }
        )
    return verdicts, traced


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    if job["trace"]:
        verdicts, traced = run_traced(job["inputs"])
        result = {"verdicts": verdicts, "traced": traced}
    else:
        verdicts = run_untraced(job["inputs"], job["seconds"])
        result = {"verdicts": verdicts}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(job["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
