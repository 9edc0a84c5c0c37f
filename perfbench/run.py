"""End-to-end benchmark of ``repro check`` and ``repro solve``.

Usage::

    python3 perfbench/run.py --workload check-k0|check-k1|solve-cons \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  The script writes the workload's inputs
into ``.perfbench_work/``, measures how long a fresh interpreter takes to
import ``repro.cli`` and build its parser (``setup_s``, median of
several), then starts one worker process (``worker.py``) that calls
``repro.cli.main`` on every input in whole rounds until ``S`` seconds
have passed.  The CLI defaults apply (lcd+hcd, ``--pts bitmap``,
``--opt hu``); a workload changes only ``--k-cs``.  Every output is then
checked by ``oracle.py``.

The inputs, their order and the worker's ``PYTHONHASHSEED`` are fixed,
so ``--seed`` changes nothing in a run: ``repro`` keeps up to eight
k-CFA expansions alive between calls and its per-call time and peak
memory depend on which inputs ran before, so a shuffled order alone
moved ``verdict_s.p50`` by 16% and ``peak_rss_mb`` by 7% between runs.
See ``corpus.py`` for why the inputs are fixed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
round instead in which every input is followed by a traced run that
composes the pipeline layer by layer, times each layer, and must
reproduce the CLI's output; it reports the per-layer metrics and the
tracing overhead (traced minus untraced seconds).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it list every metric, including ``verdict_s.p90``, ``fail_ratio``,
``bugs_missed`` and ``findings``, which the JSON leaves out (they can be
0, or exist on check workloads only).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("check-k0", "check-k1", "solve-cons")
SETUP_SPAWNS = 9
WORKER_TIMEOUT = 170.0
#: What ``worker.probe`` takes at the reference speed (measured on a 2-core
#: x86-64 VM in its faster state).  The VM's speed swings by up to 1.5x
#: from one minute to the next; every end-to-end time is multiplied by
#: PROBE_REF_S / (probe seconds around it), i.e. reported as the seconds
#: it would take at the reference speed, which roughly halves that noise.
PROBE_REF_S = 0.0075

#: Layer seconds summed into each ``<layer>.scale_exp`` fit.
SCALE_LAYERS = {
    "frontend": ("frontend.parse_s", "frontend.gen_s"),
    "contexts": ("contexts.expand_s", "contexts.project_s"),
    "preprocess": ("preprocess.opt_s", "preprocess.hcd_s", "preprocess.expand_s"),
    "solvers": ("solvers.construct_s", "solvers.solve_s"),
    "checkers": ("checkers.run_s", "checkers.sarif_s"),
    "dataflow": ("dataflow.run_s",),
}
#: Per-layer metrics summed over the inputs of the traced pass.
SUMMED = (
    ("frontend.parse_s", "s"),
    ("frontend.gen_s", "s"),
    ("frontend.constraints_out", "count"),
    ("constraints.read_s", "s"),
    ("contexts.expand_s", "s"),
    ("contexts.constraints_out", "count"),
    ("contexts.project_s", "s"),
    ("preprocess.opt_s", "s"),
    ("preprocess.constraints_out", "count"),
    ("preprocess.vars_merged", "count"),
    ("preprocess.hcd_s", "s"),
    ("preprocess.expand_s", "s"),
    ("solvers.construct_s", "s"),
    ("solvers.solve_s", "s"),
    ("solvers.propagations", "count"),
    ("solvers.nodes_searched", "count"),
    ("solvers.nodes_collapsed", "count"),
    ("points_to.memory_bytes", "bytes"),
    ("checkers.run_s", "s"),
    ("checkers.findings", "count"),
    ("dataflow.run_s", "s"),
    ("dataflow.findings", "count"),
    ("checkers.sarif_s", "s"),
)


def scaled(seconds: float, probe_s: float) -> float:
    """``seconds`` at the reference speed (see PROBE_REF_S)."""
    return seconds * PROBE_REF_S / probe_s


def measure_setup() -> float:
    """Median wall time, at the reference speed, of a fresh interpreter
    importing ``repro.cli`` and building its argument parser."""
    from worker import probe

    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    code = "import repro.cli as cli; cli.build_parser()"
    samples = []
    before = probe()
    for _ in range(SETUP_SPAWNS):
        began = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                       check=True, timeout=60)
        elapsed = time.perf_counter() - began
        after = probe()
        samples.append(scaled(elapsed, (before + after) / 2))
        before = after
    return statistics.median(samples)


def run_worker(inputs, args, workdir: str) -> dict:
    job = os.path.join(workdir, "job.json")
    result = os.path.join(workdir, "result.json")
    with open(job, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "inputs": [asdict(inp) for inp in inputs],
                "seconds": args.seconds,
                "trace": args.trace,
                "result": result,
            },
            handle,
        )
    env = dict(os.environ, PYTHONHASHSEED="0")
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), job],
                   cwd=ROOT, env=env, check=True, timeout=WORKER_TIMEOUT)
    with open(result, encoding="utf-8") as handle:
        return json.load(handle)


def judge(workload: str, inputs, verdicts: List[dict],
          certify_seconds: Dict[str, float]) -> dict:
    """Run the oracles; return the failed inputs and the totals."""
    import oracle

    golden = {}
    if inputs[0].kind == "check":
        golden = oracle.load_golden()[workload]
    bad_inputs = set()
    bugs_missed = 0
    findings = 0
    problems = []
    for inp in inputs:
        mine = [v for v in verdicts if v["name"] == inp.name]
        digests = {v["digest"] for v in mine}
        try:
            if any(v["error"] for v in mine):
                raise ValueError(next(v["error"] for v in mine if v["error"]))
            if len(digests) != 1 or None in digests:
                raise ValueError("outputs differ between rounds or are missing")
            if inp.kind == "check":
                count, missed = oracle.check_sarif(inp.path, inp.output)
                findings += count
                bugs_missed += len(missed)
                if missed:
                    raise ValueError(f"seeded bugs not reported: {missed}")
                if count != golden.get(inp.name):
                    raise ValueError(
                        f"{count} findings, {golden.get(inp.name)} recorded"
                    )
                expected_rc = 1 if count else 0
            else:
                ok, seconds = oracle.certify_output(inp.path, inp.output)
                certify_seconds[inp.name] = seconds
                if not ok:
                    raise ValueError("the certifier rejects the solution")
                expected_rc = 0
            if any(v["rc"] != expected_rc for v in mine):
                raise ValueError(f"exit code differs from {expected_rc}")
        except (ValueError, KeyError, OSError) as exc:
            bad_inputs.add(inp.name)
            problems.append(f"{inp.name}: {exc}")
    return {
        "bad_inputs": bad_inputs,
        "bugs_missed": bugs_missed,
        "findings": findings,
        "problems": problems,
    }


def median_seconds(inputs, verdicts, at_reference: bool) -> Dict[str, float]:
    """Each input's median verdict time over the rounds."""
    return {
        inp.name: statistics.median(
            scaled(v["seconds"], v["probe"]) if at_reference else v["seconds"]
            for v in verdicts if v["name"] == inp.name
        )
        for inp in inputs
    }


def end_to_end(inputs, verdicts, worker, setup_s) -> Dict[str, tuple]:
    """Per-input medians over the rounds first, so that a slow stretch
    of the machine moves one sample of an input, not its figure."""
    seconds = median_seconds(inputs, verdicts, at_reference=True)
    return {
        "lines_per_s": (
            sum(inp.lines for inp in inputs) / sum(seconds.values()), "1/s"
        ),
        "verdict_s.p50": (statistics.median(seconds.values()), "s"),
        "peak_rss_mb": (worker["peak_rss_mb"], "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(inputs, verdicts, traced, certify_seconds) -> Dict[str, tuple]:
    from corpus import log_log_slope

    metrics: Dict[str, tuple] = {}
    for name, unit in SUMMED:
        metrics[name] = (sum(t["layers"].get(name, 0.0) for t in traced), unit)
    ctx_in = sum(t["layers"].get("contexts.constraints_in", 0.0) for t in traced)
    metrics["contexts.blowup"] = (
        metrics["contexts.constraints_out"][0] / ctx_in if ctx_in else 0.0, "ratio"
    )
    # Layers and their paired verdicts ran back to back: compare them as
    # measured.
    untraced = median_seconds(inputs, verdicts, at_reference=False)
    layer_total = sum(
        sum(value for key, value in t["layers"].items() if key.endswith("_s"))
        for t in traced
    )
    metrics["cli.residual_s"] = (sum(untraced.values()) - layer_total, "s")
    metrics["verify.certify_s"] = (sum(certify_seconds.values()), "s")
    metrics["trace.overhead_s"] = (
        sum(t["seconds"] for t in traced) - sum(untraced.values()), "s"
    )
    lines = {inp.name: inp.lines for inp in inputs}
    check = inputs[0].kind == "check"
    for layer, keys in SCALE_LAYERS.items():
        slope = 0.0
        if check:
            slope = log_log_slope(
                [lines[t["name"]] for t in traced],
                [sum(t["layers"].get(k, 0.0) for k in keys) for t in traced],
            )
        metrics[f"{layer}.scale_exp"] = (slope, "slope")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import corpus

    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        inputs = corpus.write_inputs(args.workload, workdir)
        setup_s = measure_setup()
        worker = run_worker(inputs, args, workdir)
        verdicts = worker["verdicts"]
        certify_seconds: Dict[str, float] = {}
        verdict = judge(args.workload, inputs, verdicts, certify_seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    bad = verdict["bad_inputs"]
    failed = sum(1 for v in verdicts if v["name"] in bad)
    attempted = len(verdicts)
    problems = verdict["problems"]
    if args.trace:
        traced = worker["traced"]
        attempted += len(traced)
        for entry in traced:
            if not entry["same"]:
                failed += 1
                problems.append(
                    f"{entry['name']}: traced composition differs from the "
                    f"CLI output ({entry['error'] or 'different result'})"
                )
        metrics = per_layer(inputs, verdicts, traced, certify_seconds)
    else:
        metrics = end_to_end(inputs, verdicts, worker, setup_s)

    seconds = sorted(scaled(v["seconds"], v["probe"]) for v in verdicts)
    raw = median_seconds(inputs, verdicts, at_reference=False)
    report = [
        ("verdicts", len(verdicts), "count"),
        ("rounds", max(v["round"] for v in verdicts) + 1, "count"),
        ("fail_ratio", failed / attempted, "ratio"),
        ("probe_s.p50", statistics.median(v["probe"] for v in verdicts), "s"),
        ("lines_per_s.as_measured",
         sum(inp.lines for inp in inputs) / sum(raw.values()), "1/s"),
        ("verdict_s.p50.as_measured", statistics.median(raw.values()), "s"),
    ]
    if len(seconds) >= 100:
        report.append(
            ("verdict_s.p90", statistics.quantiles(seconds, n=10)[8], "s")
        )
    if inputs[0].kind == "check":
        report.append(("bugs_missed", verdict["bugs_missed"], "count"))
        report.append(("findings", verdict["findings"], "count"))
    for problem in problems:
        print(f"FAIL {problem}")
    for name, value, unit in report + [(k, v, u) for k, (v, u) in metrics.items()]:
        print(f"{args.workload:10s} {name:28s} {value:14.6g} {unit}")
    correct = failed == 0 and verdict["bugs_missed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
