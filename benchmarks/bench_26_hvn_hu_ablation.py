"""Extension — four-way offline-pipeline ablation: none/ovs/hvn/hu.

Not a paper table: this is the budget gate for the HVN/HU offline
optimization stage (``preprocess/hvn.py``, Hardekopf & Lin SAS 2007).
Each workload is solved end-to-end — offline stage *included* — under
every ``--opt`` stage, recording what the stage removed (live nodes,
constraints) and what that bought (wall time).

Three budgets arm at REPRO_SCALE ≤ 128:

- **node reduction**: HVN+HU must leave at most 70% of OVS's live
  online nodes (a ≥30% geo-mean reduction over OVS alone), measured as
  geo-mean ``hu_nodes / ovs_nodes`` over emacs/wine/linux;
- **speedup**: end-to-end ``lcd+hcd --pts int`` under ``--opt hu`` must
  be ≥1.3x geo-mean faster than under ``--opt ovs``;
- **HU offline share**: the HU stage's own seconds over the end-to-end
  seconds of the same run (``hu_offline_share``, geo-mean) must stay
  at or below ``HU_OFFLINE_SHARE_BUDGET`` — the offline pass pays off
  only while it stays cheap next to the solve it feeds.

Every stage's expanded solution is asserted bit-identical to the
unoptimized run — a speed number from a wrong solution is worthless.
"""

import gc
import time

from conftest import SCALE_DENOMINATOR, emit_table, record_extra, workload
from repro.metrics.reporting import Table, geometric_mean
from repro.preprocess.hvn import OPT_STAGES, live_var_count
from repro.solvers.registry import make_solver

ALGORITHM = "lcd+hcd"
PTS = "int"
BENCHMARKS = ["emacs", "wine", "linux"]
NODE_RATIO_BUDGET = 0.70  # hu live nodes / ovs live nodes (lower = better)
SPEEDUP_BUDGET = 1.3  # ovs seconds / hu seconds (higher = better)
#: hu offline seconds / hu total seconds (lower = better).  Measured
#: 0.41-0.43 geo-mean at 1/128 on a 2-core x86-64 VM; ~20% headroom.
HU_OFFLINE_SHARE_BUDGET = 0.52


def _timed_run(system, opt: str):
    """Best-of-five fresh end-to-end runs; returns the fastest run.

    Construction is *included*: the offline stage runs in the solver
    constructor, and charging it is the whole point of this ablation.
    The minimum is the noise-robust estimator here — the small stages
    finish in milliseconds, and a single scheduler hiccup inside a
    median-of-3 is enough to flip the ratio.  The solver returned is
    the fastest run's, so its offline seconds and the total belong to
    the same run.
    """
    best = None
    for _ in range(5):
        gc.collect()
        started = time.perf_counter()
        solver = make_solver(system, ALGORITHM, pts=PTS, opt=opt)
        solution = solver.solve()
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best[2]:
            best = (solver, solution, elapsed)
    return best


def test_hvn_hu_ablation(benchmark):
    def collect():
        runs = {}
        for name in BENCHMARKS:
            # The raw, unreduced system: every stage starts from the
            # same input, exactly as the CLI pipeline does.
            system = workload(name).original
            per_stage = {}
            reference = None
            for stage in OPT_STAGES:
                solver, solution, seconds = _timed_run(system, stage)
                if reference is None:
                    reference = solution
                else:
                    # The ablation is only meaningful if every stage's
                    # expanded solution is the unoptimized one, bit for
                    # bit.
                    assert solution == reference, (name, stage)
                per_stage[stage] = (solver, seconds)
            runs[name] = per_stage
        return runs

    runs = benchmark.pedantic(collect, rounds=1, iterations=1)

    table = Table(
        f"Extension — offline pipeline ablation ({ALGORITHM}, --pts {PTS})",
        ["benchmark", "stage", "constraints", "live nodes",
         "offline (s)", "total (s)", "vs ovs"],
    )
    node_ratios = []
    speedups = []
    hu_shares = []
    for name, per_stage in runs.items():
        ovs_seconds = per_stage["ovs"][1]
        for stage in OPT_STAGES:
            solver, seconds = per_stage[stage]
            nodes = live_var_count(solver.system)
            offline = (
                solver.stats.opt.offline_seconds
                if solver.stats.opt is not None
                else 0.0
            )
            speedup = ovs_seconds / seconds if seconds > 0 else 0.0
            table.add_row(
                [
                    name,
                    stage,
                    len(solver.system),
                    nodes,
                    f"{offline:.4f}",
                    f"{seconds:.4f}",
                    f"{speedup:.2f}x",
                ]
            )
            record_extra(
                {
                    "kind": "hvn_hu_ablation",
                    "workload": name,
                    "solver": f"{ALGORITHM}/{PTS}",
                    "stage": stage,
                    "constraints": len(solver.system),
                    "live_nodes": nodes,
                    "offline_seconds": offline,
                    "total_seconds": seconds,
                    "vars_merged": (
                        solver.stats.opt.vars_merged
                        if solver.stats.opt is not None
                        else 0
                    ),
                    "locations_merged": (
                        solver.stats.opt.locations_merged
                        if solver.stats.opt is not None
                        else 0
                    ),
                }
            )
        ovs_nodes = live_var_count(per_stage["ovs"][0].system)
        hu_nodes = live_var_count(per_stage["hu"][0].system)
        node_ratios.append(hu_nodes / ovs_nodes if ovs_nodes else 1.0)
        hu_solver, hu_seconds = per_stage["hu"]
        speedups.append(ovs_seconds / hu_seconds if hu_seconds > 0 else 0.0)
        hu_shares.append(hu_solver.stats.opt.offline_seconds / hu_seconds)

    node_geo = geometric_mean(node_ratios)
    speed_geo = geometric_mean(speedups)
    share_geo = geometric_mean(hu_shares)
    table.add_row(
        ["geo-mean", "hu vs ovs", None, f"{node_geo:.2f}x nodes",
         f"{share_geo:.2f} of total", None, f"{speed_geo:.2f}x"]
    )
    emit_table(table)

    summary = {
        "kind": "hvn_hu_ablation_summary",
        "solver": f"{ALGORITHM}/{PTS}",
        "workloads": ",".join(BENCHMARKS),
        "hu_vs_ovs_node_ratio": node_geo,
        "hu_vs_ovs_speedup": speed_geo,
        "hu_offline_share": share_geo,
    }
    if SCALE_DENOMINATOR <= 128:
        # Declare the budgets only where the measurement is meaningful;
        # check_budgets.py fails the build if the recorded values miss.
        summary["hu_vs_ovs_node_ratio_budget"] = NODE_RATIO_BUDGET
        summary["hu_vs_ovs_node_ratio_budget_cmp"] = "le"
        summary["hu_vs_ovs_speedup_budget"] = SPEEDUP_BUDGET
        summary["hu_vs_ovs_speedup_budget_cmp"] = "ge"
        summary["hu_offline_share_budget"] = HU_OFFLINE_SHARE_BUDGET
        summary["hu_offline_share_budget_cmp"] = "le"
    record_extra(summary)

    if SCALE_DENOMINATOR <= 128:
        assert node_geo <= NODE_RATIO_BUDGET, (
            f"hu/ovs live-node ratio geo-mean {node_geo:.2f} > "
            f"{NODE_RATIO_BUDGET:.2f}"
        )
        assert speed_geo >= SPEEDUP_BUDGET, (
            f"hu-vs-ovs speedup geo-mean {speed_geo:.2f}x < "
            f"{SPEEDUP_BUDGET:.1f}x"
        )
        assert share_geo <= HU_OFFLINE_SHARE_BUDGET, (
            f"hu offline share geo-mean {share_geo:.2f} > "
            f"{HU_OFFLINE_SHARE_BUDGET:.2f}"
        )
