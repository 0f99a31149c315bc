"""Run the complete reproduction and export every artifact.

Produces, in an output directory (default ``./reproduction-output``):

* one CSV per paper table/figure (14 files, see EXPERIMENTS.md),
* a text report with every table rendered,
* the provider-side fleet report for the Greedy-EBA run (the §7
  adoption view).

Run:  python examples/full_reproduction.py [--out DIR] [--scale N]
"""

import argparse
from pathlib import Path

from repro.experiments import (
    export,
    fig1_survey,
    fig2_survey,
    fig4_apps,
    fig5_eba_simulation,
    fig6_cba_simulation,
    fig7_low_carbon,
    fig9_user_study,
    fig10_job_probability,
    table1_cpu_costs,
    table2_gpu_specs,
    table3_gpu_costs,
    table4_embodied,
    table5_machines,
    table6_policy_impact,
)
from repro.experiments._simulation import policy_sweep
from repro.reporting import fleet_report, format_fleet_report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="reproduction-output")
    parser.add_argument("--scale", type=int, default=1500,
                        help="base jobs for the simulation artifacts")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    print(f"Exporting CSVs to {out}/ (scale={args.scale}) ...")
    written = export.export_all(out, scale=args.scale, seed=args.seed)
    for path in written:
        print(f"  wrote {path}")

    # Render every table into one text report.
    report_path = out / "report.txt"
    sections = [
        fig1_survey.format_table(),
        fig2_survey.format_table(),
        fig4_apps.format_table(),
        table1_cpu_costs.format_table(),
        table2_gpu_specs.format_table(),
        table3_gpu_costs.format_table(),
        table4_embodied.format_table(),
        table5_machines.format_table(),
        fig5_eba_simulation.format_report(args.scale, args.seed),
        table6_policy_impact.format_table(args.scale, args.seed),
        fig6_cba_simulation.format_report(args.scale, args.seed),
        fig7_low_carbon.format_report(args.scale, args.seed),
        fig9_user_study.format_report(),
        fig10_job_probability.format_report(),
    ]
    report_path.write_text("\n\n".join(sections) + "\n")
    print(f"  wrote {report_path}")

    # Provider view of the Greedy-EBA run (§7 adoption concern).
    results = policy_sweep("baseline", "EBA", args.scale, args.seed)
    fleet = fleet_report(results["Greedy"])
    fleet_path = out / "fleet_report.txt"
    fleet_path.write_text(format_fleet_report(fleet) + "\n")
    print(f"  wrote {fleet_path}")
    print("\n" + format_fleet_report(fleet))


if __name__ == "__main__":
    main()
