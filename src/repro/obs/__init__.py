"""``repro.obs`` — zero-dependency observability: metrics, tracing, logging.

The reproduction's pipeline (generation → discovery → classification →
analyses) is heavily cached and parallel; when a campaign is slow or a warm
start silently falls back to a cold rebuild, this package is what says why.
Three cooperating, individually usable pieces:

* :mod:`repro.obs.metrics` — a thread-safe :class:`MetricsRegistry` of
  counters and fixed-bucket histograms with a snapshot/merge API (sweep
  workers ship their metrics to the driver as snapshots) and a process-local
  default registry behind cheap module-level helpers.
* :mod:`repro.obs.trace` — a :func:`span` context-manager tracer appending
  one JSON line per completed span to the file ``--trace PATH`` names; reads
  are torn-tail tolerant and :func:`summarize_trace` powers the ``stats`` CLI
  subcommand.
* :mod:`repro.obs.log` — structured ``event key=value`` logging on the
  stdlib ``repro`` logger hierarchy, wired to the CLI's ``-v``/``-q`` flags.

**The read-only contract.**  Observability instruments *observe*: they draw
no randomness, mutate no experiment state, and feed nothing back into any
computed value.  Store content addresses, artifact bytes, and sweep-ledger
identity fields are bit-identical with tracing and metrics enabled or
disabled — enforced by ``tests/test_obs.py``.  Instrumentation overhead is
bounded by ``benchmarks/test_perf_obs.py`` (``BENCH_obs.json``).

:mod:`repro.obs.bench` additionally stamps host metadata into every
``BENCH_*.json`` artifact so perf numbers stay comparable across machines.
"""

from repro.obs.bench import BENCH_ENV_FIELDS, bench_env, visible_cpus
from repro.obs.log import configure as configure_logging
from repro.obs.log import format_event, get_logger, log_event
from repro.obs.metrics import DEFAULT_BUCKETS, Histogram, MetricsRegistry
from repro.obs.trace import TraceSummary, read_trace, span, summarize_trace

__all__ = [
    "BENCH_ENV_FIELDS",
    "bench_env",
    "visible_cpus",
    "configure_logging",
    "format_event",
    "get_logger",
    "log_event",
    "DEFAULT_BUCKETS",
    "Histogram",
    "MetricsRegistry",
    "TraceSummary",
    "read_trace",
    "span",
    "summarize_trace",
]
