"""Which functions of ``src/repro`` no entry point reaches.

Run from the repository root (numpy must be importable, because both kernel
backends are driven, and pytest, which ``tests/test_examples.py`` imports)::

    PYTHONPATH=src python tests/reachability.py           # list the unreached definitions
    PYTHONPATH=src python tests/reachability.py --check   # also fail on an unlisted or stale one

The script installs a profile hook (``sys.setprofile`` and
``threading.setprofile``) that records every function of the ``repro``
package that starts running, then drives every entry point in-process:

* on each kernel backend (forced with ``kernels.set_backend``), the ten
  experiment commands on ``--small --seed 7``: cold into a fresh store with
  ``--trace`` and ``--metrics-out``, warm from that store, and storeless;
  then a two-seed ``sweep`` with ``--ledger``, ``--trace``, ``--metrics-out``
  and ``-v``, the same sweep with ``--resume``, ``stats`` on the trace and
  metrics, ``cache ls`` and ``cache prune``;
* the four examples on ``tests/test_examples.py``'s ``TINY`` config.

The in-process context cache is cleared before every command, so each one
builds its own context as a fresh process would.  Every ``def`` is keyed by
file and first line (decorators included, as ``co_firstlineno`` counts
them).  A definition nested in an unreached one is not listed on its own: it
goes with its parent.  Under its total line, the report counts the listed
definitions and their lines per keep category.

:data:`KEEP` lists, one entry per definition, the unreached ones that stay,
each with the reason the reachability rule keeps it.  ``--check`` exits 1
when an unreached definition is missing from it, or when an entry is reached
now or names no definition, so dead code cannot grow back and the list
cannot go stale.  pytest does not collect this file (its name does not start
with ``test_``).
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "repro"

# -- keep categories ---------------------------------------------------------------

#: A live path this trace cannot see: sweep worker processes, retries,
#: timeouts, backoff and the circuit breaker, ``sampling_ratio > 1``,
#: corrupt-artifact handling, argument validators, kernel fallbacks and the
#: default store root.
LIVE = "live path the trace cannot see"
#: The metrics and trace API: callers switch it on in ways no CLI run does.
OBS_API = "metrics and trace API"
#: Called from ``src/`` on a branch no entry point takes.
BRANCH = "caller in src/ on a branch no entry point takes"
#: Bound by name in ``perfbench/``, which this repository may not edit.
PERFBENCH = "perfbench binds it by name"
#: Used by a ``benchmarks/test_perf_*`` micro-benchmark (its ratio-gate
#: baseline, for example) until ROADMAP item 1(d) folds them into perfbench.
MICRO_BENCH = "used by a benchmarks/test_perf_* micro-benchmark"
#: Used by the paper-claim benchmarks (``benchmarks/test_{fig,sec,table,ablation,ext}*``).
PAPER_CLAIM = "used by a paper-claim benchmark"
#: A test uses it to set up or observe live behaviour it checks.
TEST_HELPER = "test helper for another check"

CATEGORIES = (
    LIVE,
    OBS_API,
    BRANCH,
    PERFBENCH,
    MICRO_BENCH,
    PAPER_CLAIM,
    TEST_HELPER,
)

#: ``"<path under src/repro>::<qualified name>"`` -> keep category.
KEEP: Dict[str, str] = {
    # Live paths the trace cannot see.
    "cli.py::_positive_float": LIVE,
    "cli.py::_nonnegative_int": LIVE,
    "cli.py::_nonnegative_float": LIVE,
    "flows/kernels_np.py::_fallback": LIVE,
    "flows/kernels_np.py::_index_fallback": LIVE,
    "flows/netflow.py::_binomial_many": LIVE,
    "store/artifacts.py::default_store_root": LIVE,
    "store/artifacts.py::ArtifactStore._discard_corrupt": LIVE,
    "sweeps/metrics.py::available_metrics": LIVE,
    "sweeps/runner.py::_wall_clock_limit.<locals>._on_alarm": LIVE,
    "sweeps/runner.py::_Campaign.record_retry": LIVE,
    "sweeps/runner.py::_Campaign.record_skipped": LIVE,
    "sweeps/runner.py::pool_context": LIVE,
    "sweeps/runner.py::SweepRunner._backoff_delay": LIVE,
    "sweeps/runner.py::SweepRunner._synthetic_outcome": LIVE,
    "sweeps/runner.py::SweepRunner._skipped_outcome": LIVE,
    "sweeps/runner.py::SweepRunner._new_executor": LIVE,
    "sweeps/runner.py::SweepRunner._run_parallel": LIVE,
    "sweeps/runner.py::SweepRunner._settle": LIVE,
    # The metrics and trace API.
    "obs/metrics.py::MetricsRegistry.counter": OBS_API,
    # A caller in src/ on a branch no entry point takes.
    "flows/flowtable.py::LazyColumn.tobytes": BRANCH,
    "flows/flowtable.py::LazyColumn.__getitem__": BRANCH,
    "flows/flowtable.py::FlowTable._group_codes.<locals>.decode_packed": BRANCH,
    "obs/bench.py::visible_cpus": BRANCH,
    # RoutingTable.announce, when the caller passes no parsed network.
    "routing/bgp.py::Announcement.network": BRANCH,
    # TlsServerConfig.certificate_for, when a client sends SNI.
    "scan/certificates.py::Certificate.covers_domain": BRANCH,
    "scan/certificates.py::_name_matches": BRANCH,
    "store/codec.py::_decode": BRANCH,
    "sweeps/grid.py::ScenarioSpec.axes_dict": BRANCH,
    "sweeps/runner.py::SweepResult.ledger_rows": BRANCH,
    # Bound by name in perfbench/.
    "core/matcher.py::CompiledPatternSet.matches_provider": PERFBENCH,
    "core/matcher.py::CompiledPatternSet.match_many": PERFBENCH,
    "core/matcher.py::CompiledPatternSet._match_many_impl": PERFBENCH,
    "flows/flowtable.py::FlowTable.record_at": PERFBENCH,
    "flows/flowtable.py::FlowTable.to_records": PERFBENCH,
    "obs/bench.py::bench_env": PERFBENCH,
    "simulation/config.py::ScenarioConfig.default": PERFBENCH,
    "sweeps/runner.py::ScenarioOutcome.identity": PERFBENCH,
    # Used by a benchmarks/test_perf_* micro-benchmark.
    "store/artifacts.py::ArtifactStore.total_bytes": MICRO_BENCH,
    "store/codec.py::load_table": MICRO_BENCH,
    # Used by the paper-claim benchmarks; core/dependencies.py reproduces the
    # abstract's "at least six of the top IoT backends rely on other IoT
    # backend providers".
    "baselines/portscan_only.py::PortScanBaselineReport.miss_fraction": PAPER_CLAIM,
    "core/dependencies.py::HostingDependency.total_addresses": PAPER_CLAIM,
    "core/dependencies.py::HostingDependency.organizations": PAPER_CLAIM,
    "core/dependencies.py::HostingDependency.share": PAPER_CLAIM,
    "core/dependencies.py::HostingDependency.relies_on_third_party": PAPER_CLAIM,
    "core/dependencies.py::hosting_dependencies": PAPER_CLAIM,
    "core/dependencies.py::shared_hosting_organizations": PAPER_CLAIM,
    "core/dependencies.py::CascadeImpact.affected_fraction": PAPER_CLAIM,
    "core/dependencies.py::cascade_exposure": PAPER_CLAIM,
    "core/dependencies.py::most_critical_organization": PAPER_CLAIM,
    "core/disruption.py::BgpExposureReport.any_backend_affected": PAPER_CLAIM,
    "core/stability.py::StabilityComparison.churn_fraction": PAPER_CLAIM,
    "core/stability.py::max_churn_by_provider": PAPER_CLAIM,
    "core/traffic.py::EmpiricalDistribution.fraction_below": PAPER_CLAIM,
    "core/validation.py::GroundTruthReport.all_inside": PAPER_CLAIM,
    "experiments/characterization.py::Table1Result.row_for": PAPER_CLAIM,
    "experiments/characterization.py::Figure3Result.breakdown_for": PAPER_CLAIM,
    "experiments/traffic_experiments.py::Figure5Result.coverage_at": PAPER_CLAIM,
    "experiments/traffic_experiments.py::Figure5Result.scanners_at": PAPER_CLAIM,
    "experiments/traffic_experiments.py::Figure6Result.row_for": PAPER_CLAIM,
    "experiments/traffic_experiments.py::Figure7Result.decrease_for": PAPER_CLAIM,
    # Test helpers: a test sets up or observes the live behaviour it checks.
    "core/discovery.py::HostClassificationCache.__len__": TEST_HELPER,
    "core/footprint.py::FootprintReport.multi_country": TEST_HELPER,
    "core/matcher.py::CompiledPatternSet.pattern_count": TEST_HELPER,
    "core/matcher.py::CompiledPatternSet.indexed_suffixes": TEST_HELPER,
    "core/matcher.py::CompiledPatternSet.cache_info": TEST_HELPER,
    "core/pipeline.py::DiscoveryPipeline.host_cache": TEST_HELPER,
    "core/providers.py::ProviderSpec.documented_ports": TEST_HELPER,
    "core/providers.py::ProviderSpec.documented_protocol_names": TEST_HELPER,
    "core/traffic.py::ScannerExclusion.contacts_per_line": TEST_HELPER,
    "core/traffic.py::RegionCrossingReport.traffic_fraction": TEST_HELPER,
    "core/validation.py::SharedIpClassification.shared_ips": TEST_HELPER,
    "dns/authoritative.py::AuthoritativeNameServer.register_many": TEST_HELPER,
    "dns/passive_db.py::PassiveDnsDatabase.records": TEST_HELPER,
    "flows/anonymize.py::AnonymizationMap.labels": TEST_HELPER,
    "flows/anonymize.py::AnonymizationMap.group_labels": TEST_HELPER,
    "flows/anonymize.py::AnonymizationMap.__len__": TEST_HELPER,
    "flows/devices.py::ActivityProfile.weight_share": TEST_HELPER,
    "flows/devices.py::DeviceModel.ports": TEST_HELPER,
    "flows/netflow.py::NetFlowCollector.estimate_bytes": TEST_HELPER,
    "flows/subscribers.py::SubscriberLine.providers": TEST_HELPER,
    "flows/subscribers.py::SubscriberPopulation.__len__": TEST_HELPER,
    "netmodel/topology.py::ProviderDeployment.countries": TEST_HELPER,
    "netmodel/topology.py::ProviderDeployment.asns": TEST_HELPER,
    "routing/bgp.py::RoutingTable.announcements": TEST_HELPER,
    "scan/censys.py::CensysSnapshot.__len__": TEST_HELPER,
    "security/blocklists.py::Blocklist.__contains__": TEST_HELPER,
    "security/blocklists.py::Blocklist.__len__": TEST_HELPER,
    "simulation/world.py::World.servers_by_ip": TEST_HELPER,
    "simulation/world.py::World.active_servers_for_provider": TEST_HELPER,
    "store/codec.py::dumps_table": TEST_HELPER,
    "store/codec.py::loads_table": TEST_HELPER,
    "store/codec.py::load_table_lazy": TEST_HELPER,
    "store/codec.py::dumps_discovery": TEST_HELPER,
    "store/codec.py::loads_discovery": TEST_HELPER,
    "store/codec.py::dumps_pipeline_result": TEST_HELPER,
    "store/codec.py::loads_pipeline_result": TEST_HELPER,
    "sweeps/runner.py::SweepResult.write_ledger": TEST_HELPER,
}


# -- definitions -------------------------------------------------------------------


@dataclass(frozen=True)
class Definition:
    key: str  # "<path under src/repro>::<qualified name>"
    path: str  # the file, relative to src/repro
    first: int  # first line, decorators included
    last: int
    parent: str  # key of the enclosing def, "" at module or class level


def definitions() -> List[Definition]:
    """Every ``def`` in ``src/repro``, in file and line order."""
    found: List[Definition] = []
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        seen: Dict[str, int] = {}

        def walk(node: ast.AST, prefix: str, parent: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    seen[qualname] = seen.get(qualname, 0) + 1
                    if seen[qualname] > 1:
                        qualname += f"#{seen[qualname]}"
                    key = f"{rel}::{qualname}"
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found.append(Definition(key, rel, first, child.end_lineno, parent))
                    walk(child, qualname + ".<locals>.", key)
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".", parent)
                else:
                    walk(child, prefix, parent)

        walk(tree, "", "")
    return found


# -- the traced run ----------------------------------------------------------------


@contextlib.contextmanager
def recording(reached: Set[Tuple[str, int]]) -> Iterator[None]:
    """Record ``(path under src/repro, first line)`` of every function that runs."""
    codes: Set[object] = set()
    add = codes.add

    def hook(frame, event, arg):
        if event == "call":
            add(frame.f_code)

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        yield
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        root = str(PACKAGE) + "/"
        for code in codes:
            filename = str(Path(code.co_filename).resolve())
            if filename.startswith(root):
                reached.add((filename[len(root):], code.co_firstlineno))


def _cli(*argv: object) -> None:
    from repro import cli
    from repro.experiments import context

    context._CONTEXT_CACHE.clear()
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            status = cli.main([str(arg) for arg in argv])
    except SystemExit as exit_:
        status = exit_.code
    if status != 0:
        raise RuntimeError(f"repro {' '.join(map(str, argv))} exited {status}:\n{out.getvalue()}")


def drive(scratch: Path) -> None:
    """Run every entry point once (see the module docstring)."""
    from repro.experiments.registry import COMMANDS
    from repro.flows import kernels

    sys.path.insert(0, str(TESTS))
    from test_examples import TINY, load_example

    commands = sorted(COMMANDS)
    small = ("--small", "--seed", "7")
    try:
        for backend in (kernels.BACKEND_PYTHON, kernels.BACKEND_NUMPY):
            kernels.set_backend(backend)
            work = scratch / backend
            work.mkdir()
            store, trace, metrics = work / "store", work / "trace.jsonl", work / "metrics.json"
            for command in commands:
                _cli(command, *small, "--store", store, "--trace", trace, "--metrics-out", metrics)
            for command in commands:
                _cli(command, *small, "--store", store)
            for command in commands:
                _cli(command, *small)
            sweep = ("sweep", "--small", "--subscriber-lines", "60", "--axis", "seed=1,2",
                     "--metrics", "traffic,discovery,outage", "--store", work / "sweep-store")
            ledger = work / "sweep.jsonl"
            _cli(*sweep, "--ledger", ledger, "--trace", trace, "--metrics-out", metrics, "-v")
            _cli(*sweep, "--resume", ledger)
            _cli("stats", "--trace", trace, "--metrics", metrics)
            _cli("cache", "ls", "--store", store)
            _cli("cache", "prune", "--store", store)
        kernels.set_backend(None)
        with contextlib.redirect_stdout(io.StringIO()):
            load_example("quickstart").main(config=TINY)
            load_example("provider_audit").main(key="google", config=TINY)
            load_example("isp_traffic_study").main(config=TINY)
            load_example("outage_drill").main(config=TINY)
    finally:
        kernels.set_backend(None)
        sys.path.remove(str(TESTS))


# -- report and check --------------------------------------------------------------


def unreached(defs: List[Definition], reached: Set[Tuple[str, int]]) -> List[Definition]:
    """Every definition that never ran."""
    return [d for d in defs if (d.path, d.first) not in reached]


def listed(missing: List[Definition]) -> List[Definition]:
    """The unreached definitions whose enclosing def (if any) ran."""
    keys = {d.key for d in missing}
    return [d for d in missing if d.parent not in keys]


def line_count(defs: List[Definition]) -> int:
    """Lines spanned by ``defs``, each line counted once."""
    return len({(d.path, line) for d in defs for line in range(d.first, d.last + 1)})


def problems(
    defs: List[Definition], missing: List[Definition], shown: List[Definition]
) -> List[str]:
    """What ``--check`` fails on: unlisted, reached or unknown keep-list entries.

    A keep-list entry nested in an unreached def is not listed, but it is not
    stale either: the parent is reported instead.
    """
    found: List[str] = []
    missing_keys = {d.key for d in missing}
    all_keys = {d.key for d in defs}
    for d in shown:
        if d.key not in KEEP:
            found.append(f"unreached and not on the keep-list: {d.key} (lines {d.first}-{d.last})")
    for key, category in KEEP.items():
        if category not in CATEGORIES:
            found.append(f"keep-list entry {key} names no keep category: {category!r}")
        if key not in all_keys:
            found.append(f"stale keep-list entry, no such definition: {key}")
        elif key not in missing_keys:
            found.append(f"stale keep-list entry, reached now: {key}")
    return found


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when an unreached definition is not on the keep-list, "
        "or a keep-list entry is reached or gone",
    )
    args = parser.parse_args(argv)

    defs = definitions()
    reached: Set[Tuple[str, int]] = set()
    with tempfile.TemporaryDirectory(prefix="reachability-") as scratch:
        with recording(reached):
            drive(Path(scratch))
    missing = unreached(defs, reached)
    shown = listed(missing)
    for d in shown:
        tag = KEEP.get(d.key, "NOT KEPT")
        print(f"{d.path}:{d.first}-{d.last}  {d.key.split('::', 1)[1]}  [{tag}]")
    print(
        f"unreached: {len(missing)} of {len(defs)} definitions, "
        f"{line_count(missing)} lines; {len(shown)} listed "
        f"({len(shown) - sum(d.key in KEEP for d in shown)} not on the keep-list)"
    )
    for category in CATEGORIES + ("NOT KEPT",):
        kept = [d for d in shown if KEEP.get(d.key, "NOT KEPT") == category]
        if kept:
            print(f"  {len(kept):4d} listed, {line_count(kept):5d} lines  [{category}]")
    if not args.check:
        return 0
    found = problems(defs, missing, shown)
    for problem in found:
        print(f"reachability: {problem}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
