"""Extension — k-CFA context-sensitivity ablation (k = 0 / 1 / 2).

Not a paper table: this is the headline measurement for the call-string
context manager (``repro/contexts/``).  Two halves:

- **Precision (checker corpus)**: every corpus program is checked at
  each k; a false positive is a finding that matches no seeded
  ``/* BUG: */`` marker.  1-CFA must strictly reduce false positives
  versus the insensitive baseline while missing *zero* seeded bugs at
  any k, and 2-CFA must never be worse than 1-CFA.
- **Cost (synthetic workloads)**: emacs/wine/linux are solved
  end-to-end (context expansion + HU + solve + projection all included)
  at each k, recording wall time, the context-expansion constraint
  blowup, the post-HU constraint count, and the average projected
  points-to size — with the pointwise refinement ``pts@k1 ⊆ pts@k0``
  asserted on every variable.

Two budgets arm at REPRO_SCALE ≤ 128:

- **blowup**: the context expansion may grow the constraint system by
  at most 1.6x geo-mean over emacs/wine/linux at k=1 (sharing globals
  and specializing indirect sites is what keeps the clone explosion
  bounded);
- **time**: end-to-end k=1 may cost at most 3x the k=0 run geo-mean,
  both measured cold (the k-CFA bootstrap includes a full insensitive
  solve, and the expansion runs on every timed run: 2.65-2.98x measured
  at 1/128, so this budget has almost no headroom).

The corpus precision assertions are scale-independent and always on.
"""

import gc
import pathlib
import time

from conftest import SCALE_DENOMINATOR, emit_table, record_extra, workload
from repro.checkers import Severity, run_checkers
from repro.contexts import K_LEVELS
from repro.contexts.manager import _CACHE
from repro.frontend.generator import generate_constraints
from repro.metrics.reporting import Table, geometric_mean
from repro.solvers.registry import make_solver, solve
from repro.workloads import expected_bug_findings

ALGORITHM = "lcd+hcd"
PTS = "int"
BENCHMARKS = ["emacs", "wine", "linux"]
CORPUS = pathlib.Path(__file__).resolve().parent.parent / "tests" / "corpus"
BLOWUP_BUDGET = 1.6  # k=1 expanded / original constraints (geo-mean, le)
TIME_RATIO_BUDGET = 3.0  # k=1 seconds / k=0 seconds (geo-mean, le)


def _check_corpus_file(path: pathlib.Path, k: int, algorithm: str = ALGORITHM):
    """Findings + seeded markers for one corpus program at level ``k``."""
    field_mode = "sensitive" if ".sensitive." in path.name else "insensitive"
    program = generate_constraints(path.read_text(), field_mode=field_mode)
    solver = make_solver(program.system, algorithm, k_cs=k)
    solution = solver.solve()
    expansion = solver.context
    report = run_checkers(
        program.system,
        solution,
        program=program,
        path=path.name,
        min_severity=Severity.WARNING,
        expansion=expansion,
        expanded_solution=(
            solver.context_solution() if expansion is not None else None
        ),
    )
    seeded = set(expected_bug_findings(path.read_text()))
    found = {(d.rule, d.line) for d in report}
    false_positives = sum(
        1 for d in report if (d.rule, d.line) not in seeded
    )
    missed = len(seeded - found)
    return false_positives, missed, len(report)


def test_context_precision_on_corpus(benchmark):
    """k=1 strictly reduces corpus false positives, misses nothing."""
    corpus = sorted((CORPUS / "buggy").glob("*.c")) + sorted(
        (CORPUS / "clean").glob("*.c")
    )
    assert corpus, "checker corpus not found"

    def sweep():
        per_k = {}
        for k in K_LEVELS:
            fp = missed = findings = 0
            for path in corpus:
                f, m, n = _check_corpus_file(path, k)
                fp += f
                missed += m
                findings += n
            per_k[k] = {"fp": fp, "missed": missed, "findings": findings}
        return per_k

    per_k = benchmark.pedantic(sweep, rounds=1, iterations=1)

    table = Table(
        f"Extension — k-CFA precision on the checker corpus "
        f"({len(corpus)} programs, {ALGORITHM})",
        ["k", "findings", "false positives", "missed seeded bugs"],
    )
    for k in K_LEVELS:
        row = per_k[k]
        table.add_row([k, row["findings"], row["fp"], row["missed"]])
    emit_table(table)

    summary = {
        "kind": "context_precision_corpus",
        "solver": ALGORITHM,
        "programs": len(corpus),
        "fp_k0": per_k[0]["fp"],
        "fp_k1": per_k[1]["fp"],
        "fp_k2": per_k[2]["fp"],
        "missed_k0": per_k[0]["missed"],
        "missed_k1": per_k[1]["missed"],
        "missed_k2": per_k[2]["missed"],
        # Precision is a property of the corpus, not the scale: the
        # budgets are always declared and always asserted.
        "fp_k1_budget": per_k[0]["fp"] - 1,
        "fp_k1_budget_cmp": "le",
        "missed_k1_budget": 0,
        "missed_k1_budget_cmp": "le",
    }
    record_extra(summary)

    assert per_k[1]["fp"] < per_k[0]["fp"], (
        "1-CFA must strictly reduce corpus false positives "
        f"({per_k[1]['fp']} vs {per_k[0]['fp']})"
    )
    assert per_k[2]["fp"] <= per_k[1]["fp"]
    for k in K_LEVELS:
        assert per_k[k]["missed"] == 0, f"missed seeded bugs at k={k}"


def _timed_run(system, k: int):
    """Best-of-three cold end-to-end runs, construction included (the
    context expansion and the offline stage both run in the solver
    constructor, and charging them is the point of this ablation).  The
    expansion cache is cleared before every run: a warm run would answer
    the expansion from it and charge nothing for it."""
    best = None
    solver = None
    solution = None
    for _ in range(3):
        _CACHE.clear()
        gc.collect()
        started = time.perf_counter()
        solver = make_solver(system, ALGORITHM, pts=PTS, opt="hu", k_cs=k)
        solution = solver.solve()
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    return solver, solution, best


def test_context_cost_on_workloads(benchmark):
    def collect():
        runs = {}
        for name in BENCHMARKS:
            system = workload(name).original
            per_k = {}
            for k in K_LEVELS:
                per_k[k] = _timed_run(system, k)
            # Refinement, pointwise: each level only ever shrinks sets.
            for fine, coarse in ((1, 0), (2, 1)):
                for var in range(system.num_vars):
                    assert per_k[fine][1].points_to(var) <= per_k[coarse][
                        1
                    ].points_to(var), (name, fine, coarse, var)
            runs[name] = per_k
        return runs

    runs = benchmark.pedantic(collect, rounds=1, iterations=1)

    table = Table(
        f"Extension — k-CFA cost ablation ({ALGORITHM}, --pts {PTS}, --opt hu)",
        ["benchmark", "k", "constraints", "expanded", "post-HU",
         "avg pts", "total (s)", "vs k=0"],
    )
    blowups = []
    time_ratios = []
    for name, per_k in runs.items():
        k0_seconds = per_k[0][2]
        original = len(workload(name).original)
        for k in K_LEVELS:
            solver, solution, seconds = per_k[k]
            ctx = solver.stats.ctx
            before = ctx.constraints_before if ctx else original
            after = ctx.constraints_after if ctx else before
            ratio = seconds / k0_seconds if k0_seconds > 0 else 0.0
            table.add_row(
                [
                    name,
                    k,
                    before,
                    after,
                    len(solver.system),
                    f"{solution.average_size():.2f}",
                    f"{seconds:.4f}",
                    f"{ratio:.2f}x",
                ]
            )
            record_extra(
                {
                    "kind": "context_cost_ablation",
                    "workload": name,
                    "solver": f"{ALGORITHM}/{PTS}",
                    "k": k,
                    "constraints_before": before,
                    "constraints_after": after,
                    "constraints_post_hu": len(solver.system),
                    "avg_pts_size": solution.average_size(),
                    "contexts_created": ctx.contexts_created if ctx else 0,
                    "vars_cloned": ctx.vars_cloned if ctx else 0,
                    "indirect_sites_specialized": (
                        ctx.indirect_sites_specialized if ctx else 0
                    ),
                    "offline_seconds": ctx.offline_seconds if ctx else 0.0,
                    "total_seconds": seconds,
                }
            )
        k1_ctx = per_k[1][0].stats.ctx
        blowups.append(
            k1_ctx.constraints_after / k1_ctx.constraints_before
            if k1_ctx and k1_ctx.constraints_before
            else 1.0
        )
        time_ratios.append(
            per_k[1][2] / k0_seconds if k0_seconds > 0 else 1.0
        )

    blowup_geo = geometric_mean(blowups)
    ratio_geo = geometric_mean(time_ratios)
    table.add_row(
        ["geo-mean", "1 vs 0", None, f"{blowup_geo:.2f}x", None, None,
         None, f"{ratio_geo:.2f}x"]
    )
    emit_table(table)

    summary = {
        "kind": "context_cost_summary",
        "solver": f"{ALGORITHM}/{PTS}",
        "workloads": ",".join(BENCHMARKS),
        "k1_constraint_blowup": blowup_geo,
        "k1_vs_k0_time_ratio": ratio_geo,
    }
    if SCALE_DENOMINATOR <= 128:
        # Declare the budgets only where the measurement is meaningful;
        # check_budgets.py fails the build if the recorded values miss.
        summary["k1_constraint_blowup_budget"] = BLOWUP_BUDGET
        summary["k1_constraint_blowup_budget_cmp"] = "le"
        summary["k1_vs_k0_time_ratio_budget"] = TIME_RATIO_BUDGET
        summary["k1_vs_k0_time_ratio_budget_cmp"] = "le"
    record_extra(summary)

    if SCALE_DENOMINATOR <= 128:
        assert blowup_geo <= BLOWUP_BUDGET, (
            f"k=1 constraint blowup geo-mean {blowup_geo:.2f}x > "
            f"{BLOWUP_BUDGET:.1f}x"
        )
        assert ratio_geo <= TIME_RATIO_BUDGET, (
            f"k=1 end-to-end cost geo-mean {ratio_geo:.2f}x > "
            f"{TIME_RATIO_BUDGET:.1f}x"
        )
