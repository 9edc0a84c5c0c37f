"""Command-line interface.

Mirrors how the paper's artifact was used: constraint files in, points-to
solutions and statistics out.

::

    python -m repro solve FILE [--algorithm lcd+hcd] [--pts bitmap] [--opt hu] [--k-cs 1]
    python -m repro analyze FILE.c [--query main::p ...] [--callgraph]
    python -m repro check FILE.c [--checker null-deref ...] [--format text|sarif|json]
    python -m repro generate BENCHMARK [--scale 128] [--seed 1] [-o FILE]
    python -m repro compare FILE [--algorithms ht,pkh,lcd+hcd]
    python -m repro verify FILE [--algorithms all] [--pts all] [--k-cs 1] [--sanitize]
    python -m repro reduce FILE --check certify|disagree [-o OUT.cons]
    python -m repro stats FILE

``--opt`` and ``--k-cs`` use ``None``-sentinel defaults so a
``# repro-config:`` header written by ``repro reduce`` can replay the
recorded failure configuration unless the user overrides it explicitly.
"""

from __future__ import annotations

import argparse
import io
import sys
from typing import Dict, List, Optional, Tuple

from repro.analysis.callgraph import build_call_graph
from repro.analysis.export import (
    PointeeNames,
    constraint_graph_dot,
    solution_text_lines,
    solution_to_json,
)
from repro.constraints.parser import (
    parse_repro_header,
    read_constraints,
    write_constraints,
)
from repro.contexts import K_LEVELS
from repro.frontend.generator import generate_constraints
from repro.metrics.memory import to_megabytes
from repro.metrics.reporting import Table, format_ctx_summary, format_opt_summary
from repro.points_to.interface import FAMILY_KINDS
from repro.preprocess.hvn import OPT_STAGES, preprocess_system
from repro.solvers.registry import available_solvers, make_solver
from repro.verify.sanitizer import InvariantViolation
from repro.workloads import BENCHMARK_ORDER, generate_workload


def _read_system(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return read_constraints(handle)


def _read_system_and_header(path: str) -> Tuple[object, Dict[str, str]]:
    """Load a constraint file plus its repro-config header (``{}`` if none)."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return read_constraints(io.StringIO(text)), parse_repro_header(text)


def _resolve_replay_flags(
    args: argparse.Namespace,
    default_opt: str,
    header: Optional[Dict[str, str]] = None,
    path: str = "",
) -> None:
    """Fill in the ``--opt`` / ``--k-cs`` sentinels on ``args``.

    A value the user passed explicitly always wins; otherwise a repro
    header's recorded value is adopted (with a stderr note, so replays
    are never silent); otherwise the command's built-in default applies.
    """
    header = header or {}
    adopted = []
    if args.opt is None:
        if "opt" in header:
            if header["opt"] not in OPT_STAGES:
                raise ValueError(
                    f"repro header records unknown opt stage {header['opt']!r}"
                )
            args.opt = header["opt"]
            adopted.append(f"--opt {args.opt}")
        else:
            args.opt = default_opt
    if args.k_cs is None:
        if "k-cs" in header:
            k = int(header["k-cs"])
            if k not in K_LEVELS:
                raise ValueError(f"repro header records unknown k-cs level {k}")
            args.k_cs = k
            adopted.append(f"--k-cs {k}")
        else:
            args.k_cs = 0
    if adopted:
        print(
            f"replaying {' '.join(adopted)} from the repro-config header"
            + (f" of {path}" if path else ""),
            file=sys.stderr,
        )


def _cmd_solve(args: argparse.Namespace) -> int:
    system, header = _read_system_and_header(args.file)
    _resolve_replay_flags(args, "hu", header, args.file)
    solver = make_solver(
        system, args.algorithm, pts=args.pts, sanitize=args.sanitize,
        opt=args.opt, k_cs=args.k_cs,
    )
    solution = solver.solve()

    if args.json:
        print(solution_to_json(system, solution, include_empty=args.all))
        return 0

    shown = 0
    for line in solution_text_lines(system, solution, include_empty=args.all):
        print(line)
        shown += 1
    if args.stats:
        print()
        for key, value in solver.stats.as_dict().items():
            print(f"  {key}: {value}")
        stats_dict = solver.stats.as_dict()
        for summary in (
            format_opt_summary(stats_dict),
            format_ctx_summary(stats_dict),
        ):
            if summary:
                print(f"  [{summary}]")
    print(
        f"\n{solver.full_name}: {shown} pointers, "
        f"{solution.total_size()} points-to facts, "
        f"{solver.stats.solve_seconds:.3f}s",
        file=sys.stderr,
    )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    with open(args.file, "r", encoding="utf-8") as handle:
        source = handle.read()
    program = generate_constraints(source, field_mode=args.field_mode)
    system = program.system
    _resolve_replay_flags(args, "hu")
    solver = make_solver(
        system, args.algorithm, pts=args.pts, opt=args.opt, k_cs=args.k_cs
    )
    solution = solver.solve()

    text = PointeeNames(system.name_of).text
    if args.query:
        for name in args.query:
            try:
                node = program.node_of(name)
            except KeyError:
                print(f"{name}: unknown variable", file=sys.stderr)
                continue
            print(f"{name} -> {text(solution.points_to(node))}")
    else:
        for name in sorted(program.variables):
            node = program.variables[name]
            pointees = solution.points_to(node)
            if pointees:
                print(f"{name} -> {text(pointees)}")

    if args.callgraph:
        graph = build_call_graph(system, solution)
        print("\nindirect call sites:")
        for site in sorted(graph.edges):
            callees = sorted(
                graph.function_names.get(c, f"v{c}") for c in graph.callees(site)
            )
            print(f"  {system.name_of(site)} -> {callees}")
    return 0


def _load_checkable(path: str, field_mode: str):
    """Load ``path`` as a front-end program (``.c``) or constraint file.

    Returns ``(system, program_or_None, header)`` — checkers degrade
    gracefully on bare constraint systems (minimized repros, generated
    workloads); ``header`` is the repro-config mapping of a ``.cons``
    input (``{}`` otherwise).
    """
    if path.endswith(".cons"):
        system, header = _read_system_and_header(path)
        return system, None, header
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    program = generate_constraints(source, field_mode=field_mode)
    return program.system, program, {}


def _cmd_check(args: argparse.Namespace) -> int:
    import json

    from repro.checkers import Severity, run_checkers, to_sarif
    from repro.checkers.baseline import apply_baseline

    system, program, header = _load_checkable(args.file, args.field_mode)
    _resolve_replay_flags(args, "hu", header, args.file)
    solver = make_solver(
        system, args.solver, pts=args.pts, opt=args.opt, k_cs=args.k_cs
    )
    solution = solver.solve()
    expansion = getattr(solver, "context", None)
    report = run_checkers(
        system,
        solution,
        program=program,
        path=args.file,
        checkers=args.checker or None,
        disabled=args.disable_checker or None,
        min_severity=Severity.parse(args.min_severity),
        expansion=expansion,
        expanded_solution=(
            solver.context_solution() if expansion is not None else None
        ),
    )

    if args.baseline:
        report, created = apply_baseline(args.baseline, report)
        if created:
            print(
                f"recorded baseline in {args.baseline}; "
                "subsequent runs report only new findings",
                file=sys.stderr,
            )

    if args.format == "sarif":
        rendered = json.dumps(to_sarif(report), indent=2) + "\n"
    elif args.format == "json":
        rendered = json.dumps(
            [
                {
                    "rule": d.rule,
                    "severity": d.severity.label,
                    "message": d.message,
                    "file": d.file,
                    "line": d.line,
                    "construct": d.construct,
                    "related": [
                        {"message": r.message, "line": r.line, "file": r.file}
                        for r in d.related
                    ],
                }
                for d in report
            ],
            indent=2,
        ) + "\n"
    else:
        rendered = report.to_text()

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(
            f"wrote {len(report)} finding(s) to {args.output}", file=sys.stderr
        )
    else:
        sys.stdout.write(rendered)
    return 1 if len(report) else 0


def _cmd_generate(args: argparse.Namespace) -> int:
    system = generate_workload(
        args.benchmark, scale=1.0 / args.scale, seed=args.seed
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            write_constraints(system, handle)
        print(
            f"wrote {len(system)} constraints / {system.num_vars} vars "
            f"to {args.output}",
            file=sys.stderr,
        )
    else:
        write_constraints(system, sys.stdout)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    system, header = _read_system_and_header(args.file)
    _resolve_replay_flags(args, "hu", header, args.file)
    algorithms = args.algorithms.split(",") if args.algorithms else [
        "ht", "pkh", "lcd", "hcd", "lcd+hcd",
    ]
    table = Table(
        f"comparison on {args.file}",
        ["algorithm", "time (s)", "propagations", "searched",
         "collapsed", "memory (MB)"],
    )
    reference = None
    ctx_summary = ""
    for algorithm in algorithms:
        solver = make_solver(
            system, algorithm.strip(), pts=args.pts,
            sanitize=args.sanitize, opt=args.opt, k_cs=args.k_cs,
        )
        solution = solver.solve()
        if reference is None:
            reference = solution
        elif solution != reference:
            print(f"WARNING: {algorithm} disagrees with {algorithms[0]}",
                  file=sys.stderr)
        table.add_row(
            [
                solver.full_name,
                solver.stats.solve_seconds,
                solver.stats.propagations,
                solver.stats.nodes_searched,
                solver.stats.nodes_collapsed,
                to_megabytes(solver.stats.total_memory_bytes),
            ]
        )
        # The expansion is deterministic (and cached), so one line
        # describes every run in the table.
        ctx_summary = format_ctx_summary(solver.stats.as_dict())
    print(table.render())
    if ctx_summary:
        print(f"[{ctx_summary}]")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify.certifier import certify

    system, header = _read_system_and_header(args.file)
    _resolve_replay_flags(args, "hu", header, args.file)
    if args.algorithms == "all":
        algorithms = available_solvers()
    else:
        algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    families = list(FAMILY_KINDS) if args.pts == "all" else [args.pts]

    table = Table(
        f"certification on {args.file}",
        ["algorithm", "pts", "k", "verdict", "facts", "checks",
         "solve (s)", "certify (s)"],
    )
    failures = []
    for algorithm in algorithms:
        for family in families:
            solver = make_solver(
                system, algorithm, pts=family,
                sanitize=args.sanitize, opt=args.opt, k_cs=args.k_cs,
            )
            solution = solver.solve()
            if args.k_cs and solver.context is not None:
                # k-CFA certification runs in clone space: the projected
                # solution is strictly *more* precise than the insensitive
                # least model, so the original constraints would reject it.
                # The expanded system has standard semantics, so the same
                # independent certifier covers cloning + opt + solving.
                certified_system = solver.context.expanded
                report = certify(certified_system, solver.context_solution())
            else:
                certified_system = system
                report = certify(system, solution)
            table.add_row(
                [
                    solver.full_name,
                    family,
                    args.k_cs,
                    "ACCEPT" if report.ok else "REJECT",
                    report.claimed_facts,
                    report.facts_checked,
                    solver.stats.solve_seconds,
                    report.total_seconds,
                ]
            )
            if not report.ok:
                failures.append(
                    (solver.full_name, family, certified_system, report)
                )
    print(table.render())
    for name, family, certified_system, report in failures:
        print(f"\n{name} / {family}:", file=sys.stderr)
        print(report.summary(certified_system), file=sys.stderr)
    return 1 if failures else 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    from repro.verify.reduce import (
        certifier_rejects,
        minimize_system,
        solvers_disagree,
    )

    system, header = _read_system_and_header(args.file)
    _resolve_replay_flags(args, "none", header, args.file)
    if args.check == "certify":
        predicate = certifier_rejects(
            args.algorithm, pts=args.pts,
            sanitize=args.sanitize, opt=args.opt, k_cs=args.k_cs,
        )
    else:
        predicate = solvers_disagree(
            args.algorithm, args.against, pts_a=args.pts, pts_b=args.pts,
            opt=args.opt, k_cs=args.k_cs,
        )
    result = minimize_system(system, predicate)
    config = {"check": args.check, "algorithm": args.algorithm}
    if args.check == "disagree":
        config["against"] = args.against
    config.update({"pts": args.pts, "opt": args.opt, "k-cs": args.k_cs})
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            result.write(handle, config=config)
    else:
        result.write(sys.stdout, config=config)
    print(
        f"minimized {len(system)} -> {len(result)} constraints "
        f"({len(result.pinned)} pinned, {result.tests_run} predicate runs)"
        + (f"; wrote {args.output}" if args.output else ""),
        file=sys.stderr,
    )
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    system = _read_system(args.file)
    solution = None
    if args.solve:
        solution = make_solver(system, "lcd+hcd").solve()
    print(constraint_graph_dot(system, solution, max_nodes=args.max_nodes))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    system = _read_system(args.file)
    counts = system.kind_counts()
    print(f"variables:    {system.num_vars}")
    print(f"constraints:  {len(system)}")
    for kind, count in counts.items():
        print(f"  {kind.value:6s}  {count}")
    print(f"functions:    {len(system.functions)}")
    print(f"address-taken variables: {len(system.address_taken())}")
    print(f"dereferenced variables:  {len(system.dereferenced())}")
    for stage in OPT_STAGES[1:]:
        pre = preprocess_system(system, stage)
        print(
            f"{stage.upper()}: {len(system)} -> {len(pre.reduced)} constraints "
            f"({pre.reduction_ratio:.0%} reduction, "
            f"{pre.merged_count()} variables substituted, "
            f"{pre.locations_merged()} locations merged, "
            f"{pre.passes} passes"
            f"{'' if pre.converged else ', stopped at the round bound'})"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Inclusion-based pointer analysis (Hardekopf & Lin, PLDI 2007)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_k_cs(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--k-cs",
            type=int,
            default=None,
            choices=list(K_LEVELS),
            dest="k_cs",
            help="k-CFA context sensitivity: clone function-local "
            "variables per bounded call string before the --opt stage "
            "and project the solution back onto the base variables "
            "(default 0, context-insensitive); composable with every "
            "algorithm and points-to family",
        )

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--algorithm",
            default="lcd+hcd",
            help=f"one of: {', '.join(available_solvers())}",
        )
        p.add_argument(
            "--pts",
            default="bitmap",
            choices=list(FAMILY_KINDS),
            help="points-to representation: GCC-style sparse bitmaps, "
            "per-variable BDDs, or interned bignum intsets (memoized "
            "unions, fused word-parallel kernel)",
        )
        p.add_argument(
            "--opt",
            default=None,
            choices=list(OPT_STAGES),
            help="offline optimization stage run before solving: raw "
            "constraints (none), Rountev-style variable substitution "
            "(ovs), hash-based value numbering (hvn), or the "
            "union-tracking extension with location equivalence (hu, "
            "the default); solutions are expanded back to the original "
            "variable space, so results are identical across stages",
        )
        add_k_cs(p)

    p_solve = sub.add_parser("solve", help="solve a constraint file")
    p_solve.add_argument("file")
    common(p_solve)
    p_solve.add_argument(
        "--sanitize", action="store_true",
        help="install solver invariant checks (collapse consistency, "
        "monotone growth, LCD/intern invariants); aborts on violation",
    )
    p_solve.add_argument("--all", action="store_true", help="print empty sets too")
    p_solve.add_argument("--stats", action="store_true", help="print solver counters")
    p_solve.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p_solve.set_defaults(func=_cmd_solve)

    p_dot = sub.add_parser("dot", help="dump the constraint graph as Graphviz dot")
    p_dot.add_argument("file")
    p_dot.add_argument("--solve", action="store_true",
                       help="annotate nodes with their points-to sets")
    p_dot.add_argument("--max-nodes", type=int, default=200)
    p_dot.set_defaults(func=_cmd_dot)

    p_analyze = sub.add_parser("analyze", help="analyze a C-subset source file")
    p_analyze.add_argument("file")
    common(p_analyze)
    p_analyze.add_argument("--query", nargs="*", help="variable names to report")
    p_analyze.add_argument("--callgraph", action="store_true")
    p_analyze.add_argument(
        "--field-mode",
        default="insensitive",
        choices=["insensitive", "based", "sensitive"],
        help="field treatment: the paper's insensitive default, the "
        "footnote-2 field-based variant, or full field-sensitivity",
    )
    p_analyze.set_defaults(func=_cmd_analyze)

    p_check = sub.add_parser(
        "check",
        help="run the points-to-powered bug checkers on a C or .cons file",
    )
    p_check.add_argument("file", help="a .c source file or a .cons constraint file")
    p_check.add_argument(
        "--solver",
        default="lcd+hcd",
        help=f"points-to algorithm to check against; one of: "
        f"{', '.join(available_solvers())}",
    )
    p_check.add_argument(
        "--pts",
        default="bitmap",
        choices=list(FAMILY_KINDS),
        help="points-to representation (alias queries use its native AND)",
    )
    p_check.add_argument(
        "--opt",
        default=None,
        choices=list(OPT_STAGES),
        help="offline optimization stage run before solving (results "
        "are identical across stages; default hu)",
    )
    add_k_cs(p_check)
    p_check.add_argument(
        "--checker",
        action="append",
        help="run only this checker (repeatable); default: all registered",
    )
    p_check.add_argument(
        "--disable-checker",
        action="append",
        help="drop this checker from the selection (repeatable)",
    )
    p_check.add_argument(
        "--min-severity",
        default="warning",
        choices=["note", "warning", "error"],
        help="report only findings at or above this severity",
    )
    p_check.add_argument(
        "--format",
        default="text",
        choices=["text", "sarif", "json"],
        help="compiler-style text, SARIF 2.1.0, or plain JSON",
    )
    p_check.add_argument(
        "--field-mode",
        default="insensitive",
        choices=["insensitive", "based", "sensitive"],
        help="front-end field treatment for .c inputs",
    )
    p_check.add_argument(
        "--baseline",
        help="findings-fingerprint file: created (and all current findings "
        "recorded) when missing, otherwise only findings not in it are "
        "reported and the exit status reflects new findings only",
    )
    p_check.add_argument("-o", "--output", help="write the report here")
    p_check.set_defaults(func=_cmd_check)

    p_generate = sub.add_parser("generate", help="emit a synthetic benchmark workload")
    p_generate.add_argument("benchmark", choices=BENCHMARK_ORDER)
    p_generate.add_argument("--scale", type=float, default=128.0,
                            help="scale denominator (paper counts / N)")
    p_generate.add_argument("--seed", type=int, default=1)
    p_generate.add_argument("-o", "--output")
    p_generate.set_defaults(func=_cmd_generate)

    p_compare = sub.add_parser("compare", help="run several algorithms on one file")
    p_compare.add_argument("file")
    p_compare.add_argument("--algorithms", help="comma-separated solver names")
    p_compare.add_argument(
        "--pts",
        default="bitmap",
        choices=list(FAMILY_KINDS),
        help="points-to representation (bitmap, bdd, or int)",
    )
    p_compare.add_argument(
        "--opt",
        default=None,
        choices=list(OPT_STAGES),
        help="offline optimization stage run before every solve "
        "(default hu)",
    )
    add_k_cs(p_compare)
    p_compare.add_argument(
        "--sanitize", action="store_true",
        help="install solver invariant checks on every run",
    )
    p_compare.set_defaults(func=_cmd_compare)

    p_verify = sub.add_parser(
        "verify",
        help="solve and independently certify (soundness + precision)",
    )
    p_verify.add_argument("file")
    p_verify.add_argument(
        "--algorithms",
        default="lcd+hcd",
        help="comma-separated solver names, or 'all' for every "
        "inclusion-based configuration",
    )
    p_verify.add_argument(
        "--pts",
        default="bitmap",
        choices=list(FAMILY_KINDS) + ["all"],
        help="points-to representation, or 'all' for every family",
    )
    p_verify.add_argument(
        "--opt",
        default=None,
        choices=list(OPT_STAGES),
        help="offline optimization stage run before solving (default "
        "hu); the certifier checks the expanded solution against the "
        "*original* constraints, so certification covers the "
        "substitution map too (at --k-cs > 0, against the "
        "context-expanded constraints — see docs/internals.md)",
    )
    add_k_cs(p_verify)
    p_verify.add_argument(
        "--sanitize", action="store_true",
        help="also install solver invariant checks while solving",
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_reduce = sub.add_parser(
        "reduce",
        help="delta-debug a failing constraint file to a 1-minimal repro",
    )
    p_reduce.add_argument("file")
    p_reduce.add_argument(
        "--check",
        default="certify",
        choices=["certify", "disagree"],
        help="failure predicate: the certifier rejects --algorithm's "
        "solution, or --algorithm disagrees with --against",
    )
    p_reduce.add_argument(
        "--algorithm",
        default="lcd+hcd",
        help=f"one of: {', '.join(available_solvers())}",
    )
    p_reduce.add_argument(
        "--against",
        default="naive",
        help="second solver for --check disagree",
    )
    p_reduce.add_argument(
        "--pts",
        default="bitmap",
        choices=list(FAMILY_KINDS),
        help="points-to representation used while replaying",
    )
    p_reduce.add_argument(
        "--opt",
        default=None,
        choices=list(OPT_STAGES),
        help="offline optimization stage applied while replaying the "
        "predicate (default none: repros replay the raw failure)",
    )
    add_k_cs(p_reduce)
    p_reduce.add_argument(
        "--sanitize", action="store_true",
        help="treat sanitizer InvariantViolation as failure too "
        "(--check certify)",
    )
    p_reduce.add_argument("-o", "--output", help="write the repro here")
    p_reduce.set_defaults(func=_cmd_reduce)

    p_stats = sub.add_parser("stats", help="constraint-file statistics + offline-stage preview")
    p_stats.add_argument("file")
    p_stats.set_defaults(func=_cmd_stats)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        # A --sanitize run tripped a solver invariant: report the
        # structured context and exit distinctly from usage errors.
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # Covers malformed constraint files (ConstraintParseError), front-
        # end lexer/parser errors, and unknown algorithm names.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
