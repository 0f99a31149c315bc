"""One entry point per paper table/figure.

Every module exposes ``run(...)`` returning structured rows and a
``format_table(...)`` (or similar) renderer; the benchmark harness under
``benchmarks/`` times and prints them, and the examples reuse them.

Import figure modules by name (``from repro.experiments import
fig5_eba_simulation``).  The package itself imports none of them, so
the simulator entry points (``repro.experiments._simulation``) load only
numpy; ``fig9_user_study`` and ``fig10_job_probability`` bring in scipy
only when their statistics run.

==========================  ==========================================
Module                      Paper artifact
==========================  ==========================================
``fig1_survey``             Fig. 1 — sustainability-metric awareness
``fig2_survey``             Fig. 2 — machine-choice importance factors
``fig4_apps``               Fig. 4 — app runtime/energy on CPU nodes
``table1_cpu_costs``        Table 1 — normalized CPU Cholesky costs
``table2_gpu_specs``        Table 2 — GPU specs and carbon rates
``table3_gpu_costs``        Table 3 — GPU Cholesky costs
``table4_embodied``         Table 4 — linear vs accelerated embodied
``table5_machines``         Table 5 — simulation machines
``fig5_eba_simulation``     Fig. 5a-c — EBA simulation study
``table6_policy_impact``    Table 6 — energy/carbon per policy
``fig6_cba_simulation``     Fig. 6 — CBA fixed-allocation work
``fig7_low_carbon``         Fig. 7a-c — low-carbon grids scenario
``fig9_user_study``         Fig. 9a-c — game energy/jobs by version
``fig10_job_probability``   Fig. 10 — P(run) vs job energy
==========================  ==========================================
"""

__all__ = [
    "fig1_survey",
    "fig2_survey",
    "fig4_apps",
    "table1_cpu_costs",
    "table2_gpu_specs",
    "table3_gpu_costs",
    "table4_embodied",
    "table5_machines",
    "fig5_eba_simulation",
    "table6_policy_impact",
    "fig6_cba_simulation",
    "fig7_low_carbon",
    "fig9_user_study",
    "fig10_job_probability",
]
