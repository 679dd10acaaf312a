"""Docs-drift guard: the CLI surface must stay documented.

Every subcommand registered on the ``iot-backend-repro`` parser must appear
both in the top-level ``README.md`` and in ``repro.cli``'s module docstring,
so a new command cannot ship undocumented.  The architecture guide is checked
for existence and for naming the load-bearing concepts it exists to explain.
"""

import argparse
import re
from pathlib import Path

import pytest

from repro import cli

REPO_ROOT = Path(__file__).resolve().parents[1]
README = REPO_ROOT / "README.md"
ARCHITECTURE = REPO_ROOT / "docs" / "ARCHITECTURE.md"


def subcommand_names():
    parser = cli.build_parser()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return sorted(action.choices)
    raise AssertionError("CLI parser has no subcommands")


def test_cli_has_the_expected_command_families():
    names = subcommand_names()
    assert "sweep" in names and "cache" in names
    assert len(names) >= 12


@pytest.mark.parametrize("name", subcommand_names())
def test_every_subcommand_is_in_the_readme(name):
    assert README.is_file(), "README.md is missing"
    text = README.read_text(encoding="utf-8")
    assert re.search(rf"`{re.escape(name)}", text), (
        f"CLI subcommand {name!r} is not documented in README.md"
    )


@pytest.mark.parametrize("name", subcommand_names())
def test_every_subcommand_is_in_the_cli_docstring(name):
    assert cli.__doc__, "repro.cli has no module docstring"
    assert re.search(rf"iot-backend-repro {re.escape(name)}\b", cli.__doc__), (
        f"CLI subcommand {name!r} is not listed in the repro.cli module docstring"
    )


def test_architecture_guide_exists_and_names_the_contracts():
    assert ARCHITECTURE.is_file(), "docs/ARCHITECTURE.md is missing"
    text = ARCHITECTURE.read_text(encoding="utf-8")
    for concept in (
        "ScenarioConfig",
        "ExperimentContext",
        "FlowTable",
        "ArtifactStore",
        "RngRegistry",
        "mutate",  # the don't-attach-a-store-to-a-mutated-world caveat
        "discovery:",  # the persisted-discovery stage tag
        "byte-identical",  # the determinism contract every layer keeps
    ):
        assert concept in text, f"ARCHITECTURE.md does not mention {concept!r}"


def test_fault_tolerance_flags_are_documented_everywhere():
    """The sweep fault-tolerance surface must stay documented as one unit.

    ``--resume``, ``--retries``, and ``--timeout`` must be exposed by the
    sweep parser and described in the README, the CLI module docstring, and
    the architecture guide's fault-tolerance section.
    """
    parser = cli.build_parser()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            sub = action.choices["sweep"]
            flags = [flag for a in sub._actions for flag in a.option_strings]
            for flag in ("--resume", "--retries", "--timeout", "--backoff", "--max-failures"):
                assert flag in flags, f"sweep lost the {flag} option"
    readme = README.read_text(encoding="utf-8")
    architecture = ARCHITECTURE.read_text(encoding="utf-8")
    for flag in ("--resume", "--retries", "--timeout"):
        assert flag in readme, f"{flag} is not documented in README.md"
        assert flag in cli.__doc__, f"{flag} is not in the repro.cli docstring"
    assert "Fault tolerance" in architecture
    for concept in ("ledger", "circuit breaker", "resume", "sharded"):
        assert concept in architecture, f"ARCHITECTURE.md does not mention {concept!r}"


def test_observability_surface_is_documented_everywhere():
    """The observability surface must stay documented as one unit.

    ``--trace``, ``--metrics-out``, and the verbosity flags must be exposed
    on the experiment commands and sweep; the flags, the ``stats``
    subcommand, and the read-only contract must be described in the README,
    the CLI module docstring, and the architecture guide.
    """
    parser = cli.build_parser()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name in ("traffic", "sweep"):
                sub = action.choices[name]
                flags = [flag for a in sub._actions for flag in a.option_strings]
                for flag in ("--trace", "--metrics-out", "--verbose", "--quiet"):
                    assert flag in flags, f"{name} lost the {flag} option"
            stats = action.choices["stats"]
            stats_flags = [flag for a in stats._actions for flag in a.option_strings]
            assert "--trace" in stats_flags and "--metrics" in stats_flags
    readme = README.read_text(encoding="utf-8")
    architecture = ARCHITECTURE.read_text(encoding="utf-8")
    for flag in ("--trace", "--metrics-out"):
        assert flag in readme, f"{flag} is not documented in README.md"
        assert flag in cli.__doc__, f"{flag} is not in the repro.cli docstring"
    assert "Observability" in architecture
    for concept in (
        "MetricsRegistry",
        "read-only",  # the hard contract
        "span",
        "coverage",  # root-span wall-clock accounting
    ):
        assert concept in architecture, f"ARCHITECTURE.md does not mention {concept!r}"


def test_kernel_surface_is_documented_everywhere():
    """The aggregation-kernel surface must stay documented as one unit.

    The ``IOT_REPRO_KERNELS`` env var must match the constant the kernels
    actually read, the README must document the env var and the parity
    guarantee, and the architecture guide must explain backend selection,
    the GroupIndex lifecycle, and the parity contract.
    """
    from repro.flows import kernels

    assert kernels.KERNELS_ENV_VAR == "IOT_REPRO_KERNELS"
    readme = README.read_text(encoding="utf-8")
    assert "IOT_REPRO_KERNELS" in readme, "kernel env var is not in README.md"
    assert "bit-identical" in readme, "README.md lost the kernel parity guarantee"
    assert "test_kernel_parity" in readme, "README.md does not name the parity harness"
    architecture = ARCHITECTURE.read_text(encoding="utf-8")
    assert "Aggregation kernels" in architecture
    for concept in (
        "IOT_REPRO_KERNELS",
        "GroupIndex",
        "kernels_np",
        "kernel_backend",  # the BENCH_flowtable.json stamp
        "NotImplemented",  # the per-input numpy->python fallback contract
        "first-appearance",  # the dict-order part of the parity contract
        "test_kernel_parity",
    ):
        assert concept in architecture, f"ARCHITECTURE.md does not mention {concept!r}"


def test_row_kernels_are_documented():
    """The row-filter and row-mask kernels and the mask-length rule stay in the guide."""
    from repro.flows import kernels

    architecture = ARCHITECTURE.read_text(encoding="utf-8")
    assert "**Row kernels.**" in architecture
    assert "Mask-length" in architecture and "ValueError" in architecture
    for kernel in (
        kernels.filter_rows,
        kernels.expand_code_mask,
        kernels.not_in_mask,
        kernels.nonzero_mask,
    ):
        assert kernel.__name__ in architecture, f"ARCHITECTURE.md does not name {kernel.__name__}"
    for concept in ("kernels.fallbacks.", "as_numpy", "mixed-radix", "2^63"):
        assert concept in architecture, f"ARCHITECTURE.md does not mention {concept!r}"
    assert "mixed_keys" not in architecture, "the mixed_keys fallback no longer exists"


def test_sort_free_group_indexes_are_documented():
    """The group-index builder's sort-free pass and its bound stay in the guide."""
    architecture = ARCHITECTURE.read_text(encoding="utf-8")
    assert "**Sort-free group indexes.**" in architecture
    for concept in ("minimum.at", "cumsum", "L = max(2 × rows, 2^16)", "O(rows)",
                    "group_distinct_count"):
        assert concept in architecture, f"ARCHITECTURE.md does not mention {concept!r}"
    assert "kernels.reference_" not in architecture, "the reference kernels live in the tests"


def test_store_read_path_is_documented_everywhere():
    """The zero-copy store read path must stay documented as one unit.

    The README must name the mmap loader, neither document may name the
    retired read-mode switch, and the architecture guide must explain the
    lazy-column mechanics, the copy-on-write rule, and the narrow decode step.
    """
    readme = README.read_text(encoding="utf-8")
    assert "load_table_mmap" in readme, "README.md does not name the mmap loader"
    architecture = ARCHITECTURE.read_text(encoding="utf-8")
    # Spelled in two parts, so a grep of the tree for the retired names stays empty.
    retired_names = ("IOT_REPRO_STORE" + "_MMAP", "mmap" + "_reads")
    for name, text in (("README.md", readme), ("ARCHITECTURE.md", architecture)):
        for retired in retired_names:
            assert retired not in text, f"{name} still names the retired {retired!r}"
    assert "Zero-copy reads" in architecture
    for concept in (
        "load_table_mmap",
        "LazyColumn",
        "Copy-on-write",  # the mutation barrier rule
        "first touch",  # deferred column decode
        "frombuffer",  # numpy kernels read straight off the map
        "Narrow decode step",  # foreign order / non-'i' code typecode
        "corrupt-fallback",  # empty or truncated files stay a store miss
        "test_store_mmap",
    ):
        assert concept in architecture, f"ARCHITECTURE.md does not mention {concept!r}"


def test_ip_lookup_index_is_documented():
    """The one longest-prefix-match implementation must stay named in the guide."""
    from repro.netmodel.addressing import PrefixIndex

    architecture = ARCHITECTURE.read_text(encoding="utf-8")
    assert "### IP lookups and scan snapshots" in architecture
    for concept in (PrefixIndex.__name__, "setdefault", "fresh_copy", "group_index_fallbacks"):
        assert concept in architecture, f"ARCHITECTURE.md does not mention {concept!r}"


def test_generation_stream_layout_is_documented():
    """The v1 draw order of workload generation must stay written down."""
    architecture = ARCHITECTURE.read_text(encoding="utf-8")
    assert "Generation stream layout (v1)" in architecture
    for concept in ("getrandbits", "Kinderman–Monahan", "workload:<hour-iso>"):
        assert concept in architecture, f"ARCHITECTURE.md does not mention {concept!r}"


def test_readme_documents_install_and_benchmarks():
    text = README.read_text(encoding="utf-8")
    assert "PYTHONPATH=src" in text
    for artifact in sorted(REPO_ROOT.glob("BENCH_*.json")):
        assert artifact.name in text, (
            f"benchmark artifact {artifact.name} is not referenced in README.md"
        )
