"""The experiment registry: the paper's 19 analyses as one list.

Each :class:`Experiment` names its op id (``fig15_16``, the id perfbench
reports), the CLI command that prints it (``outage``), the analysis and the
render of its result.  The CLI builds its experiment subcommands, help lines
and output from :data:`EXPERIMENTS` and :data:`COMMANDS`, and the goldens and
tests run the same entries: adding an analysis to a command is one entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import methodcaller
from typing import Callable, Dict, Tuple

from repro.experiments import characterization as ch
from repro.experiments import disruption_experiments as dis
from repro.experiments import traffic_experiments as tr
from repro.experiments.context import ExperimentContext
from repro.obs import trace as obs_trace


@dataclass(frozen=True)
class Experiment:
    """One analysis of the paper, the command that prints it and its render."""

    op: str
    command: str
    analysis: Callable[[ExperimentContext], object]
    render: Callable[[object], str] = methodcaller("render")

    def run(self, context: ExperimentContext) -> str:
        """The rendered result, with the analysis and render in an ``exp.<op>`` span."""
        with obs_trace.span(f"exp.{self.op}"):
            return self.render(self.analysis(context))


EXPERIMENTS: Tuple[Experiment, ...] = (
    Experiment("table1", "table1", ch.table1_characterization),
    Experiment("table2", "patterns", lambda context: ch.table2_regexes()),
    Experiment("fig2", "discovery", ch.pipeline_summary),
    Experiment("fig3", "sources", ch.fig3_source_contribution),
    Experiment("fig4", "stability", ch.fig4_stability),
    Experiment("sec34", "validation", ch.sec34_validation),
    Experiment("fig5", "traffic", tr.fig5_scanner_threshold),
    Experiment("fig6", "traffic", tr.fig6_visibility),
    Experiment("fig7", "traffic", tr.fig7_tls_only_loss),
    Experiment("fig8", "traffic", tr.fig8_subscriber_activity),
    Experiment("fig9", "traffic", tr.fig9_traffic_volume),
    Experiment("fig10", "traffic", tr.fig10_direction_ratio),
    Experiment("fig11", "traffic", tr.fig11_port_mix),
    Experiment("fig12", "traffic", tr.fig12_per_subscriber_volumes),
    Experiment("fig13_14", "traffic", tr.fig13_fig14_region_crossing),
    Experiment(
        "fig15_16",
        "outage",
        dis.fig15_fig16_outage,
        lambda result: result.render("15") + "\n\n" + result.render("16"),
    ),
    Experiment("sec62", "disruptions", dis.sec62_potential_disruptions),
    Experiment("ablation_portscan", "ablations", dis.ablation_portscan_baseline),
    Experiment("ablation_vantage", "ablations", dis.ablation_vantage_points),
)

#: Experiment command -> its help line, in the order the golden digests list them.
COMMANDS: Dict[str, str] = {
    "table1": "provider characterization (Table 1)",
    "patterns": "regexes and queries (Table 2 / Appendix A)",
    "discovery": "end-to-end discovery summary (Figure 2)",
    "sources": "per-source contribution (Figure 3)",
    "stability": "IP-set stability (Figure 4)",
    "validation": "methodology validation (Section 3.4/3.5)",
    "traffic": "traffic analyses (Figures 5-14)",
    "outage": "AWS outage impact (Figures 15-16)",
    "disruptions": "BGP / blocklist exposure (Section 6.2)",
    "ablations": "portscan-only / vantage-point ablations",
}


def run_command(name: str, context: ExperimentContext) -> str:
    """The output of experiment command ``name``: its renders, blank-line separated."""
    return "\n\n".join(e.run(context) for e in EXPERIMENTS if e.command == name)
