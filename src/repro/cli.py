"""Command-line interface: ``python -m repro ...``.

Subcommands map one-to-one onto the experiment modules so the whole
reproduction is drivable without writing Python:

* ``tables`` — print the hardware-study tables (1-5) and Figs. 1/2/4;
* ``simulate`` — the §5 study (Figs. 5/6, Table 6) at a chosen scale;
* ``low-carbon`` — the §5.6 scenario (Fig. 7);
* ``study`` — the §6 game study (Figs. 9/10);
* ``tiers`` — the tiered worker-fleet straggler study (beyond the
  paper: per-tier utilization/bottleneck metrics and the fairness
  spread of user charges under all five methods);
* ``quote`` — price a function on every machine under any method;
* ``sweep serve`` — the long-lived incremental sweep service
  (JSON-lines on stdin/stdout, content-addressed result store);
* ``lint`` — the repro-lint invariant checker (rules RPL001..RPL009).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence


def _cmd_tables(args: argparse.Namespace) -> int:
    from repro.experiments import (
        fig1_survey,
        fig2_survey,
        fig4_apps,
        table1_cpu_costs,
        table2_gpu_specs,
        table3_gpu_costs,
        table4_embodied,
        table5_machines,
    )

    sections = {
        "fig1": fig1_survey.format_table,
        "fig2": fig2_survey.format_table,
        "fig4": fig4_apps.format_table,
        "table1": table1_cpu_costs.format_table,
        "table2": table2_gpu_specs.format_table,
        "table3": table3_gpu_costs.format_table,
        "table4": table4_embodied.format_table,
        "table5": table5_machines.format_table,
    }
    wanted = args.only or list(sections)
    for name in wanted:
        if name not in sections:
            print(
                f"unknown table {name!r}; known: {', '.join(sections)}",
                file=sys.stderr,
            )
            return 2
        print(sections[name]())
        print()
    return 0


def _apply_jobs(args: argparse.Namespace) -> bool:
    """Cap sweep parallelism from ``--jobs`` (overrides
    ``REPRO_SWEEP_WORKERS``; default resolution is the CPU count).

    Returns False (after printing a usage error) for non-positive
    counts."""
    jobs = getattr(args, "jobs", None)
    if jobs is None:
        return True
    if jobs < 1:
        print(f"--jobs must be >= 1, got {jobs}", file=sys.stderr)
        return False
    from repro.sim.sweep import set_default_workers

    set_default_workers(jobs)
    return True


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.experiments import (
        fig5_eba_simulation,
        fig6_cba_simulation,
        table6_policy_impact,
    )
    from repro.experiments._simulation import policy_sweeps

    if not _apply_jobs(args):
        return 2
    # The reports compare EBA and CBA: run both as one sweep up front.
    policy_sweeps("baseline", ("EBA", "CBA"), args.scale, args.seed)
    print(fig5_eba_simulation.format_report(scale=args.scale, seed=args.seed))
    print()
    print(table6_policy_impact.format_table(scale=args.scale, seed=args.seed))
    print()
    print(fig6_cba_simulation.format_report(scale=args.scale, seed=args.seed))
    return 0


def _cmd_low_carbon(args: argparse.Namespace) -> int:
    from repro.experiments import fig7_low_carbon

    if not _apply_jobs(args):
        return 2
    print(fig7_low_carbon.format_report(scale=args.scale, seed=args.seed))
    return 0


def _cmd_study(args: argparse.Namespace) -> int:
    from repro.experiments import fig9_user_study, fig10_job_probability

    print(fig9_user_study.format_report(n_users=args.users, seed=args.seed))
    print()
    print(fig10_job_probability.format_report(n_users=args.users, seed=args.seed))
    return 0


def _cmd_tiers(args: argparse.Namespace) -> int:
    from repro.experiments import tiers_study

    if not _apply_jobs(args):
        return 2
    print(
        tiers_study.format_report(
            scale=args.scale,
            seed=args.seed,
            straggler_frac=args.straggler_frac,
            straggler_sigma=args.straggler_sigma,
        )
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.experiments._simulation import simulate_swf_trace
    from repro.reporting import fleet_report, format_fleet_report

    result = simulate_swf_trace(
        args.trace,
        scenario_name=args.scenario,
        method_name=args.method,
        policy_name=args.policy,
        streaming=not args.in_memory,
        chunk_jobs=args.chunk_jobs,
        spill_dir=args.spill_dir,
        seed=args.seed,
    )
    print(format_fleet_report(fleet_report(result)))
    print()
    print(
        f"jobs {result.n_jobs}  makespan {result.makespan_s / 3600.0:.1f} h  "
        f"total cost {result.total_cost():.3e}"
    )
    return 0


def _cmd_quote(args: argparse.Namespace) -> int:
    from repro.accounting.base import pricing_for_node
    from repro.accounting.methods import method_by_name
    from repro.faas.predictor import PredictionService
    from repro.hardware.catalog import (
        CPU_EXPERIMENT_NODES,
        CPU_EXPERIMENT_YEAR,
        TABLE1_CARBON_INTENSITY,
    )
    from repro.apps.registry import APP_REGISTRY

    try:
        method = method_by_name(args.method)
    except KeyError as err:
        print(err, file=sys.stderr)
        return 2
    profile = APP_REGISTRY.get(args.function)
    if profile is None:
        print(
            f"unknown function {args.function!r}; known: {', '.join(sorted(APP_REGISTRY))}",
            file=sys.stderr,
        )
        return 2

    pricings = {
        node.name: pricing_for_node(
            node, CPU_EXPERIMENT_YEAR, TABLE1_CARBON_INTENSITY[node.name]
        )
        for node in CPU_EXPERIMENT_NODES
    }
    service = PredictionService()
    quotes = service.quote(profile.signature, method, pricings, cores=args.cores)
    print(f"expected {method.name} cost of {args.function!r} ({args.cores} cores):")
    for machine, cost in sorted(quotes.items(), key=lambda kv: kv[1]):
        print(f"  {machine:<14} {cost:12.4g}")
    return 0


def _cmd_sweep_serve(args: argparse.Namespace) -> int:
    """Boot the long-lived sweep service on stdin/stdout JSON lines.

    Blocks until a ``{"op": "shutdown"}`` request or EOF on stdin; the
    result store at ``--store`` persists across invocations, so a
    restarted service still serves previously computed grid points
    without recomputing.
    """
    from repro.experiments._simulation import sweep_service
    from repro.sim.sweep_service import serve_stdio

    if not _apply_jobs(args):
        return 2
    service = sweep_service(
        args.store,
        workers=args.jobs,
        mp_context=args.mp_context,
        max_store_bytes=args.max_store_bytes,
        max_retries=args.max_retries,
    )
    return serve_stdio(service, sys.stdin, sys.stdout)


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the repro-lint invariant checker (``tools/repro_lint``).

    The checker lives under ``tools/`` (it is development tooling, not
    part of the simulator), so running from a checkout adds that
    directory to ``sys.path`` on demand.  An installed package without
    the ``tools/`` tree reports the situation instead of crashing.
    """
    try:
        import repro_lint  # noqa: F401  (already importable: dev env)
    except ImportError:
        from pathlib import Path

        tools_dir = Path(__file__).resolve().parents[2] / "tools"
        if not (tools_dir / "repro_lint").is_dir():
            print(
                "repro lint: tools/repro_lint not found next to this "
                "checkout; run from the repository root",
                file=sys.stderr,
            )
            return 2
        sys.path.insert(0, str(tools_dir))
    from repro_lint.cli import main as lint_main

    forward: list[str] = list(args.paths)
    if args.select:
        forward += ["--select", args.select]
    if args.statistics:
        forward.append("--statistics")
    if args.list_rules:
        forward.append("--list-rules")
    return lint_main(forward)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Core Hours and Carbon Credits' (SC 2025)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tables = sub.add_parser("tables", help="print the hardware-study tables")
    p_tables.add_argument(
        "--only", nargs="*", metavar="NAME",
        help="subset, e.g. table1 table4 fig2",
    )
    p_tables.set_defaults(fn=_cmd_tables)

    p_sim = sub.add_parser("simulate", help="run the section-5 simulation study")
    p_sim.add_argument("--scale", type=int, default=6_000,
                       help="base jobs before the x2 repetition")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="parallel sweep workers (default: "
                            "$REPRO_SWEEP_WORKERS or the CPU count)")
    p_sim.set_defaults(fn=_cmd_simulate)

    p_low = sub.add_parser("low-carbon", help="run the section-5.6 scenario")
    p_low.add_argument("--scale", type=int, default=6_000)
    p_low.add_argument("--seed", type=int, default=0)
    p_low.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="parallel sweep workers (default: "
                            "$REPRO_SWEEP_WORKERS or the CPU count)")
    p_low.set_defaults(fn=_cmd_low_carbon)

    p_study = sub.add_parser("study", help="run the section-6 user study")
    p_study.add_argument("--users", type=int, default=90)
    p_study.add_argument("--seed", type=int, default=11)
    p_study.set_defaults(fn=_cmd_study)

    p_tiers = sub.add_parser(
        "tiers", help="run the tiered worker-fleet straggler study"
    )
    p_tiers.add_argument("--scale", type=int, default=1_500,
                         help="base jobs before the x2 repetition")
    p_tiers.add_argument("--seed", type=int, default=0)
    p_tiers.add_argument("--straggler-frac", type=float, default=0.08,
                         help="fraction of jobs that straggle")
    p_tiers.add_argument("--straggler-sigma", type=float, default=1.0,
                         help="lognormal tail weight of the inflation")
    p_tiers.add_argument("--jobs", type=int, default=None, metavar="N",
                         help="parallel sweep workers (default: "
                              "$REPRO_SWEEP_WORKERS or the CPU count)")
    p_tiers.set_defaults(fn=_cmd_tiers)

    p_quote = sub.add_parser("quote", help="price a function across machines")
    p_quote.add_argument("function", help="benchmark function name, e.g. Cholesky")
    p_quote.add_argument("--method", default="EBA",
                         help="Runtime | Energy | Peak | EBA | CBA")
    p_quote.add_argument("--cores", type=int, default=8)
    p_quote.set_defaults(fn=_cmd_quote)

    p_trace = sub.add_parser(
        "trace", help="replay an SWF trace through the streaming engine"
    )
    p_trace.add_argument("trace", help="path to an SWF trace file")
    p_trace.add_argument("--scenario", default="baseline",
                         help="baseline | low-carbon")
    p_trace.add_argument("--method", default="EBA",
                         help="Runtime | Energy | Peak | EBA | CBA")
    p_trace.add_argument("--policy", default="EFT",
                         help="a standard policy name, e.g. Greedy or EFT")
    p_trace.add_argument("--chunk-jobs", type=int, default=None,
                         help="jobs ingested per chunk (streaming)")
    p_trace.add_argument("--spill-dir", default=None,
                         help="directory for spilled outcome blocks")
    p_trace.add_argument("--in-memory", action="store_true",
                         help="materialize the whole trace (reference path)")
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.set_defaults(fn=_cmd_trace)

    p_sweep = sub.add_parser(
        "sweep", help="long-lived sweep service with an incremental store"
    )
    sweep_sub = p_sweep.add_subparsers(dest="sweep_command", required=True)
    p_serve = sweep_sub.add_parser(
        "serve",
        help="serve sweep requests over stdin/stdout JSON lines",
    )
    p_serve.add_argument(
        "--store", default=".repro-results",
        help="result-store directory (default: .repro-results)",
    )
    p_serve.add_argument("--jobs", type=int, default=None, metavar="N",
                         help="persistent worker count (default: "
                              "$REPRO_SWEEP_WORKERS or the CPU count)")
    p_serve.add_argument("--mp-context", default=None,
                         help="fork | spawn | forkserver (default: "
                              "$REPRO_SWEEP_MP_CONTEXT or the platform "
                              "default)")
    p_serve.add_argument("--max-store-bytes", type=int, default=None,
                         help="LRU byte budget for the result store "
                              "(default: unbounded)")
    p_serve.add_argument("--max-retries", type=int, default=2,
                         help="crash-retry budget per grid point")
    p_serve.set_defaults(fn=_cmd_sweep_serve)

    p_lint = sub.add_parser(
        "lint",
        help="check the determinism/hot-path invariants (repro-lint)",
    )
    p_lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to check (default: src)",
    )
    p_lint.add_argument(
        "--select", metavar="CODES",
        help="comma-separated rule codes to report (default: all)",
    )
    p_lint.add_argument(
        "--statistics", action="store_true",
        help="append a per-rule violation count summary",
    )
    p_lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    p_lint.set_defaults(fn=_cmd_lint)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
