"""Experiment harness: one function per table/figure of the paper.

Every function takes an :class:`~repro.experiments.context.ExperimentContext`
(which caches the expensive artifacts: the synthetic world, the discovery pipeline
run, and the generated flows) and returns a small result object with the figure's
data and a ``render()`` method producing the text the benchmark harness prints.

The module names follow the paper's artefacts:

* ``characterization`` — Table 1, Table 2 (Appendix A), Figures 2--4, Section 3.4/3.5.
* ``traffic_experiments`` — Figures 5--14 (Section 5).
* ``disruption_experiments`` — Figures 15--16, Section 6.2, and the ablations.

``registry`` lists the 19 analyses once, each with the CLI command that prints
it; the CLI, the golden digests and the tests run them from there.  The
package does not import it, so importing :func:`build_context` loads no
experiment module.
"""

from repro.experiments.context import ExperimentContext, build_context

__all__ = ["ExperimentContext", "build_context"]
