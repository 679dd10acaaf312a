"""CLI coverage for ``iot-backend-repro cache ls|prune``.

The store's *codec-level* corruption handling is covered by the store tests;
these tests cover the CLI surface itself — listing, pruning, the age cutoff,
the ``$IOT_REPRO_STORE`` default — and the sidecar failure modes the CLI must
survive: a corrupted (non-JSON) sidecar, a truncated sidecar, and orphan
payload/sidecar files, none of which may crash ``ls`` and all of which a full
``prune`` must clean up.
"""

import json
from datetime import date, datetime

import pytest

from repro.cli import main
from repro.flows.flowtable import FlowTable
from repro.simulation.clock import StudyPeriod
from repro.simulation.config import ScenarioConfig
from repro.store.artifacts import STORE_ENV_VAR, ArtifactStore

from flowrows import from_records, make_flow

CONFIG = ScenarioConfig.small(seed=5)
PERIOD = StudyPeriod(date(2022, 3, 1), date(2022, 3, 2), name="cache-cli")


def tiny_table() -> FlowTable:
    return from_records(
        [
            make_flow(
                timestamp=datetime(2022, 3, 1, hour),
                subscriber_id=hour,
                subscriber_prefix="prefix-0",
                ip_version=4,
                provider_key="amazon",
                server_ip="10.0.0.1",
                server_continent="EU",
                server_region="eu-west-1",
                transport="tcp",
                port=8883,
                bytes_down=100.0,
                bytes_up=10.0,
            )
            for hour in range(3)
        ]
    )


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


def populate(store: ArtifactStore, stages=("a", "b")) -> list:
    digests = []
    for stage in stages:
        # Payloads live in the sharded layout: <root>/ab/cdef....rft.
        path = store.put_table(CONFIG, PERIOD, f"stage:{stage}", tiny_table())
        digests.append(path.parent.name + path.stem)
    return digests


class TestCacheLs:
    def test_empty_store_reports_empty(self, store, capsys):
        assert main(["cache", "ls", "--store", str(store.root)]) == 0
        assert "is empty" in capsys.readouterr().out

    def test_ls_lists_stage_digest_and_rows(self, store, capsys):
        digests = populate(store)
        assert main(["cache", "ls", "--store", str(store.root)]) == 0
        out = capsys.readouterr().out
        for digest in digests:
            assert digest[:12] in out
        assert "stage:a" in out and "stage:b" in out
        assert "Artifact store" in out

    def test_ls_survives_corrupted_and_truncated_sidecars(self, store, capsys):
        digests = populate(store)
        victim, survivor = digests
        # Corrupted sidecar: not JSON at all.
        store._meta_path(victim).write_bytes(b"\x00garbage, not json\xff")
        # Truncated sidecar: valid prefix of real JSON, cut mid-object.
        trunc_payload = store.put_table(CONFIG, PERIOD, "stage:trunc", tiny_table())
        truncated = trunc_payload.parent.name + trunc_payload.stem
        meta_path = store._meta_path(truncated)
        meta_path.write_text(meta_path.read_text()[: len(meta_path.read_text()) // 2])
        assert main(["cache", "ls", "--store", str(store.root)]) == 0
        out = capsys.readouterr().out
        assert survivor[:12] in out
        # The broken entries are skipped, not fatal.
        assert victim[:12] not in out and truncated[:12] not in out

    def test_default_store_comes_from_the_environment(self, store, capsys, monkeypatch):
        populate(store, stages=("env",))
        monkeypatch.setenv(STORE_ENV_VAR, str(store.root))
        assert main(["cache", "ls"]) == 0
        assert "stage:env" in capsys.readouterr().out


class TestCachePrune:
    def test_prune_all_removes_artifacts_and_strays(self, store, capsys):
        digests = populate(store)
        # Orphans and broken sidecars must also disappear on a full prune.
        (store.root / "orphan-payload.rft").write_bytes(b"leftover payload bytes")
        (store.root / "orphan-sidecar.json").write_text("{\"digest\": \"gone\"")
        (store.root / f"{digests[0]}.json").write_bytes(b"not json either")
        assert main(["cache", "prune", "--store", str(store.root)]) == 0
        out = capsys.readouterr().out
        assert "pruned" in out and "freed" in out
        leftovers = [p.name for p in store.root.iterdir()]
        assert leftovers == [], leftovers
        # ls after the prune sees an empty store, not an error.
        assert main(["cache", "ls", "--store", str(store.root)]) == 0
        assert "is empty" in capsys.readouterr().out

    def test_prune_age_cutoff_keeps_fresh_artifacts(self, store, capsys):
        populate(store)
        assert main(
            ["cache", "prune", "--store", str(store.root), "--older-than-days", "1"]
        ) == 0
        assert "pruned 0 artifact(s)" in capsys.readouterr().out
        assert store.entries(), "fresh artifacts must survive an age-gated prune"

    def test_prune_age_cutoff_drops_old_artifacts(self, store, capsys):
        digests = populate(store)
        # Backdate one artifact's sidecar far beyond the cutoff.
        meta_path = store._meta_path(digests[0])
        meta = json.loads(meta_path.read_text())
        meta["created"] = float(meta["created"]) - 10 * 86400.0
        meta_path.write_text(json.dumps(meta))
        assert main(
            ["cache", "prune", "--store", str(store.root), "--older-than-days", "5"]
        ) == 0
        assert "pruned 1 artifact(s)" in capsys.readouterr().out
        remaining = {entry.digest for entry in store.entries()}
        assert remaining == {digests[1]}

    def test_prune_rejects_non_positive_cutoff(self):
        with pytest.raises(SystemExit):
            main(["cache", "prune", "--older-than-days", "0"])
