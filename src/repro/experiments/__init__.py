"""Experiment reproductions: one module per paper table/figure.

| Module | Paper artefact |
| --- | --- |
| :mod:`repro.experiments.table1_requirements` | Table 1 — machine configuration M |
| :mod:`repro.experiments.table2_bootstrap` | Table 2 — service bootstrapping time |
| :mod:`repro.experiments.table3_config` | Table 3 — service configuration file |
| :mod:`repro.experiments.table4_syscall` | Table 4 — syscall-level slow-down |
| :mod:`repro.experiments.fig3_isolation` | Figure 3 — attack isolation |
| :mod:`repro.experiments.fig4_loadbalance` | Figure 4 — load balancing |
| :mod:`repro.experiments.fig5_cpushares` | Figure 5 — CPU share isolation |
| :mod:`repro.experiments.fig6_slowdown` | Figure 6 — application-level slow-down |
| :mod:`repro.experiments.download_time` | §4.3 text — download time linear in size |

Plus seven ablations beyond the paper: ``ablation_bridge_proxy``
(footnote 3), ``ablation_ddos`` (the §3.5 caveat + shaper mitigation),
``ablation_inflation`` (footnote 2's 1.5x), ``ablation_policies``,
``ablation_placement``, ``ablation_scheduler_shares`` (unequal CPU
entitlements), and ``ablation_tailoring``.

Every module exposes ``run(seed=0, fast=False) -> ExperimentResult``;
``fast`` trades statistical smoothness for speed (used in CI).  The
:mod:`repro.experiments.runner` CLI runs any or all of them.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "runner": ["EXPERIMENTS", "run_experiment"],
})
