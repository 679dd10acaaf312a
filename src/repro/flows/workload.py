"""Workload generation: hourly IoT flows between subscriber lines and backends.

For every hour of a study period, every IoT device behind a subscriber line is
active with a probability given by its application's diurnal profile; active
devices exchange traffic with one of their provider's backend servers.  Server
selection prefers servers on the device's continent (Europe) with a per-provider
probability, mirroring how providers map European clients to nearby regions — and,
for providers using global load balancing, spreads devices over the whole fleet.

Outages (Section 6.1) are injected here: flows served by servers in an affected
cloud region during the outage window are scaled down, and a small fraction of the
affected devices disappears from the data entirely.

:meth:`WorkloadGenerator.generate_period_table` appends hourly batches straight
into dictionary-encoded :class:`~repro.flows.flowtable.FlowTable` columns.  All
per-device invariants — candidate server subsets (which cost several SHA-256
hashes to resolve), per-model hourly activity probabilities, cumulative port
weights, volume multipliers, dictionary codes for every categorical value — are
resolved once per period, so the hourly hot loop touches only the RNG and plain
ints/floats.

Generation stream layout (v1).  Each hour draws from its own stream
(``workload:<hour-iso>``) through the two C-level Mersenne Twister primitives
``random()`` and ``getrandbits()`` only, in a fixed order per device:

* activity roll: one ``random()`` per device; inactive devices stop here;
* server pick: ``getrandbits(n.bit_length())`` for the device's ``n``
  candidates, redrawn while the result is ``>= n`` (none when ``n == 0``);
* outage roll: one ``random()``, only when the server's device factor is < 1;
* volume: Kinderman–Monahan pairs ``random(), random()`` until one is
  accepted, then ``math.log`` / ``math.exp`` for the lognormal factor;
* port roll: one ``random()`` against the cumulative port weights.

These are the draws ``random.Random.randrange`` and ``lognormvariate`` make,
inlined, so the output is bit-identical under a fixed seed on every supported
interpreter.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from datetime import datetime, time
from random import NV_MAGICCONST
from struct import pack
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.providers import PROVIDERS, ProviderSpec
from repro.flows.devices import DeviceModel
from repro.flows.flowtable import CATEGORICAL_COLUMNS, NUMERIC_COLUMNS, FlowTable
from repro.flows.netflow import DEFAULT_PACKET_SIZE
from repro.flows.scanners import append_scanner_flows
from repro.flows.subscribers import DeviceInstance, SubscriberPopulation
from repro.netmodel.geo import CONTINENT_EUROPE, CONTINENT_NORTH_AMERICA
from repro.netmodel.topology import ProviderDeployment
from repro.obs.trace import span
from repro.outage.injector import OutageSchedule
from repro.simulation.clock import StudyPeriod
from repro.simulation.rng import RngRegistry, stable_hash

_NUMERIC_NAMES = tuple(name for name, _typecode in NUMERIC_COLUMNS)
#: Array typecode of each field of a generated flow tuple (dictionary codes
#: are ``array('i')``), in CATEGORICAL_COLUMNS + NUMERIC_COLUMNS order.
_FLOW_TYPECODES = ("i",) * len(CATEGORICAL_COLUMNS) + tuple(
    typecode for _name, typecode in NUMERIC_COLUMNS
)


@dataclass(frozen=True)
class _ServerChoice:
    """A pre-resolved server option for device flows."""

    ip: str
    continent: str
    region_code: str
    cloud_host: Optional[str]


@dataclass(frozen=True)
class _DevicePlan:
    """Per-device invariants precomputed once per generator (RNG-free)."""

    line_id: int
    prefix: str
    provider_key: str
    probabilities: Tuple[float, ...]
    candidates: Tuple[_ServerChoice, ...]
    versions: Tuple[int, ...]
    per_hour_down: float
    per_hour_up: float
    multiplier: float
    port_cumulative: Tuple[float, ...]
    port_pairs: Tuple[Tuple[str, int], ...]


class WorkloadGenerator:
    """Generates hourly flow tables for a subscriber population and deployments."""

    def __init__(
        self,
        population: SubscriberPopulation,
        deployments: Mapping[str, ProviderDeployment],
        rng: RngRegistry,
        outage_schedule: Optional[OutageSchedule] = None,
        providers: Sequence[ProviderSpec] = PROVIDERS,
        servers_per_device: int = 2,
        volume_sigma: float = 0.75,
    ) -> None:
        self.population = population
        self.deployments = dict(deployments)
        self.rng = rng
        self.outage_schedule = outage_schedule or OutageSchedule()
        self.providers = {spec.key: spec for spec in providers}
        self.servers_per_device = max(1, servers_per_device)
        self.volume_sigma = volume_sigma
        self._volume_correction = math.exp(-(volume_sigma**2) / 2.0)
        self._choices = self._index_servers()
        self._model_cache: Dict[
            DeviceModel, Tuple[Tuple[float, ...], Tuple[float, ...], Tuple[Tuple[str, int], ...]]
        ] = {}
        self._plans: Optional[List[_DevicePlan]] = None

    # -- server indexing ---------------------------------------------------------

    def _index_servers(self) -> Dict[str, Dict[int, Dict[str, List[_ServerChoice]]]]:
        """Index provider servers by ip version and continent."""
        index: Dict[str, Dict[int, Dict[str, List[_ServerChoice]]]] = {}
        for provider_key, deployment in self.deployments.items():
            by_version: Dict[int, Dict[str, List[_ServerChoice]]] = {4: {}, 6: {}}
            for server in deployment.servers:
                choice = _ServerChoice(
                    ip=server.ip,
                    continent=server.location.continent,
                    region_code=server.location.region_code,
                    cloud_host=server.cloud_host,
                )
                by_version[server.ip_version].setdefault(choice.continent, []).append(choice)
            index[provider_key] = by_version
        return index

    def server_catalog(self, ip_version: int = 4) -> List[Tuple[str, str, str, str]]:
        """Return (provider, ip, continent, region) for every server of a family."""
        catalog: List[Tuple[str, str, str, str]] = []
        for provider_key, by_version in sorted(self._choices.items()):
            for continent in sorted(by_version.get(ip_version, {})):
                for choice in by_version[ip_version][continent]:
                    catalog.append((provider_key, choice.ip, continent, choice.region_code))
        return catalog

    def _candidate_servers(
        self, device: DeviceInstance, ip_version: int
    ) -> List[_ServerChoice]:
        """Return the per-device server subset (deterministic in the device id).

        Devices are *provisioned* against a region: with probability ``eu_share`` a
        device is assigned to the provider's European servers and otherwise to a
        remote region, and all its flows go there.  This stickiness is what makes a
        large share of subscriber lines communicate exclusively with servers on one
        continent (Section 5.7).  Providers with global load balancing instead
        spread devices over the whole fleet.
        """
        by_version = self._choices.get(device.provider_key, {})
        pools = by_version.get(ip_version) or by_version.get(4) or {}
        if not pools:
            return []
        model = device.model
        all_choices = [choice for choices in pools.values() for choice in choices]
        if model.global_server_selection:
            # Globally load-balanced providers spread European devices across their
            # whole European and North-American fleet, which is why almost all of
            # their backend addresses are visible from the ISP (the paper's T2).
            spread_pool = [
                c
                for c in all_choices
                if c.continent in (CONTINENT_EUROPE, CONTINENT_NORTH_AMERICA)
            ] or all_choices
            return self._hash_subset(device.device_id, spread_pool, self.servers_per_device * 4)
        eu_pool = pools.get(CONTINENT_EUROPE, [])
        remote_pool = [c for c in all_choices if c.continent != CONTINENT_EUROPE]
        assigned_to_eu = (
            bool(eu_pool)
            and (
                not remote_pool
                or stable_hash(device.device_id + ":region", 1000) < int(model.eu_share * 1000)
            )
        )
        if assigned_to_eu:
            pool = eu_pool
        else:
            # Remote-assigned European devices are provisioned against the provider's
            # main remote region (typically a large North-American region), not spread
            # over the whole remote fleet: only a handful of remote entry points are
            # therefore ever visible from the ISP (Section 5.2).
            na_pool = [c for c in remote_pool if c.continent == CONTINENT_NORTH_AMERICA]
            entry_pool = na_pool or remote_pool or eu_pool
            entry_count = max(self.servers_per_device, len(entry_pool) // 8)
            pool = self._hash_subset(
                device.provider_key + ":remote-entry", entry_pool, entry_count
            )
        if not pool:
            pool = all_choices
        return self._hash_subset(device.device_id, pool, self.servers_per_device)

    @staticmethod
    def _hash_subset(seed: str, pool: Sequence[_ServerChoice], size: int) -> List[_ServerChoice]:
        """Pick a deterministic subset of a pool based on a string seed."""
        if len(pool) <= size:
            return list(pool)
        start = stable_hash(seed, len(pool))
        step = 1 + stable_hash(seed + ":step", max(1, len(pool) - 1))
        return [pool[(start + i * step) % len(pool)] for i in range(size)]

    # -- flow generation -------------------------------------------------------------

    def generate_period_table(
        self, period: StudyPeriod, include_scanners: bool = True
    ) -> FlowTable:
        """Generate all flows of a study period, scanner traffic included.

        Flows are appended hourly-batch-wise straight into ``FlowTable``
        columns, hours in order, each day followed by that day's scanner
        traffic when ``include_scanners`` is set.
        """
        with span("gen.period", start=period.start.isoformat()):
            table = FlowTable()
            rows, outage_keys = self._encoded_plans(table)
            scanner_lines = self.population.scanner_lines() if include_scanners else []
            catalog = self.server_catalog(ip_version=4) if include_scanners else []
            for day in period.days():
                for hour in range(24):
                    when = datetime.combine(day, time(hour=hour))
                    with span("gen.hour", hour=when.isoformat()):
                        self._append_hour_columns(table, rows, outage_keys, when)
                if include_scanners:
                    with span("gen.scanners", day=day.isoformat()):
                        append_scanner_flows(table, scanner_lines, catalog, day, self.rng)
        return table

    def _model_tables(
        self, model: DeviceModel
    ) -> Tuple[Tuple[float, ...], Tuple[float, ...], Tuple[Tuple[str, int], ...]]:
        """Per-model lookup tables: hourly probabilities, port cumulative weights.

        Keyed by the (frozen, hashable) model itself, so two devices of one
        provider carrying distinct models never share tables.
        """
        cached = self._model_cache.get(model)
        if cached is None:
            probabilities = tuple(
                model.profile.activity_probability(hour) for hour in range(24)
            )
            cumulative: List[float] = []
            total = 0.0
            for _pair, weight in model.port_weights:
                total += weight
                cumulative.append(total)
            pairs = tuple(pair for pair, _weight in model.port_weights)
            cached = (probabilities, tuple(cumulative), pairs)
            self._model_cache[model] = cached
        return cached

    def _device_plans(self) -> List[_DevicePlan]:
        """Flatten the population into per-device plans (population order)."""
        if self._plans is None:
            plans: List[_DevicePlan] = []
            for line in self.population.lines:
                for device in line.devices:
                    model = device.model
                    probabilities, port_cumulative, port_pairs = self._model_tables(model)
                    candidates = tuple(self._candidate_servers(device, line.ip_version))
                    versions = tuple(
                        6 if (line.ip_version == 6 and ":" in choice.ip) else 4
                        for choice in candidates
                    )
                    hours = model.profile.active_hours_per_day
                    plans.append(
                        _DevicePlan(
                            line_id=line.line_id,
                            prefix=line.isp_prefix,
                            provider_key=device.provider_key,
                            probabilities=probabilities,
                            candidates=candidates,
                            versions=versions,
                            per_hour_down=model.mean_daily_down_bytes / hours,
                            per_hour_up=model.mean_daily_up_bytes / hours,
                            multiplier=self._device_multiplier(device),
                            port_cumulative=port_cumulative,
                            port_pairs=port_pairs,
                        )
                    )
            self._plans = plans
        return self._plans

    def _encoded_plans(
        self, table: FlowTable
    ) -> Tuple[List[tuple], List[Tuple[Optional[str], str]]]:
        """Encode the device plans against one table's dictionary pools.

        Returns per-device tuples ``(probabilities, line_id, prefix_code,
        provider_code, candidates, n, n.bit_length(), per_hour_down,
        per_hour_up, multiplier, port_cumulative, port_codes, port_count)``
        plus the distinct (cloud_host, region) outage-factor keys.  Each
        candidate is ``(ip_code, continent_code, region_code, ip_version,
        outage_key_index)``, so the hourly hot loop handles plain integers and
        floats only and calls no ``len()``.
        """
        encode = table.encode_value
        outage_index: Dict[Tuple[Optional[str], str], int] = {}
        outage_keys: List[Tuple[Optional[str], str]] = []
        rows: List[tuple] = []
        for plan in self._device_plans():
            encoded_candidates = []
            for choice, version in zip(plan.candidates, plan.versions):
                key = (choice.cloud_host, choice.region_code)
                key_index = outage_index.get(key)
                if key_index is None:
                    key_index = outage_index[key] = len(outage_keys)
                    outage_keys.append(key)
                encoded_candidates.append(
                    (
                        encode("server_ip", choice.ip),
                        encode("server_continent", choice.continent),
                        encode("server_region", choice.region_code),
                        version,
                        key_index,
                    )
                )
            n_candidates = len(encoded_candidates)
            rows.append(
                (
                    plan.probabilities,
                    plan.line_id,
                    encode("subscriber_prefix", plan.prefix),
                    encode("provider_key", plan.provider_key),
                    tuple(encoded_candidates),
                    n_candidates,
                    n_candidates.bit_length(),
                    plan.per_hour_down,
                    plan.per_hour_up,
                    plan.multiplier,
                    plan.port_cumulative,
                    tuple(
                        (encode("transport", transport), port)
                        for transport, port in plan.port_pairs
                    ),
                    len(plan.port_cumulative),
                )
            )
        return rows, outage_keys

    def _append_hour_columns(
        self,
        table: FlowTable,
        rows: Sequence[tuple],
        outage_keys: Sequence[Tuple[Optional[str], str]],
        when: datetime,
    ) -> None:
        """Generate one hour of IoT flows straight into the table columns.

        Consumes the hour's stream in the v1 layout (see the module docstring):
        per device, one ``random()`` activity roll; for devices that emit a
        flow, a ``getrandbits(n.bit_length())`` server pick with rejection, a
        ``random()`` outage roll only when the server's device factor is < 1,
        Kinderman–Monahan ``random()`` pairs for the lognormal volume (then
        ``math.log`` / ``math.exp``), and a ``random()`` port roll.  These are
        exactly the draws ``randrange`` and ``lognormvariate`` make, so the
        rows are bit-identical under a fixed seed.
        """
        stream = self.rng.fresh_stream(f"workload:{when.isoformat()}")
        rand = stream.random
        getrandbits = stream.getrandbits
        hour = when.hour
        # One schedule lookup per distinct (cloud_host, region) key per hour
        # instead of two per flow; outside outage windows the lookup is skipped
        # entirely (factors are 1.0 and no outage roll is drawn).
        schedule = self.outage_schedule
        has_outage = any(event.active_at(when) for event in schedule.events())
        if has_outage:
            traffic_factors = [
                schedule.traffic_factor(host, region, when) for host, region in outage_keys
            ]
            device_factors = [
                schedule.device_factor(host, region, when) for host, region in outage_keys
            ]
        else:
            traffic_factors = device_factors = None
        timestamp_code = table.encode_value("timestamp", when)
        correction = self._volume_correction
        sigma = self.volume_sigma
        magic = NV_MAGICCONST
        ceil = math.ceil
        log = math.log
        exp = math.exp
        flows: List[tuple] = []
        emit = flows.append
        for row in rows:
            if rand() >= row[0][hour]:
                continue
            n = row[5]
            if not n:
                continue
            k = row[6]
            pick = getrandbits(k)
            while pick >= n:
                pick = getrandbits(k)
            candidate = row[4][pick]
            if device_factors is None:
                traffic_factor = 1.0
            else:
                device_factor = device_factors[candidate[4]]
                if device_factor < 1.0 and rand() > device_factor:
                    continue
                traffic_factor = traffic_factors[candidate[4]]
            while True:
                u1 = rand()
                u2 = 1.0 - rand()
                z = magic * (u1 - 0.5) / u2
                if z * z / 4.0 <= -log(u2):
                    break
            volume_factor = exp(z * sigma) * correction * row[9]
            bytes_down = row[7] * volume_factor * traffic_factor
            bytes_up = row[8] * volume_factor * traffic_factor
            port_cumulative = row[10]
            index = bisect_right(port_cumulative, rand() * port_cumulative[-1])
            if index >= row[12]:
                index = row[12] - 1
            transport_code, port = row[11][index]
            emit(
                (
                    timestamp_code,
                    row[2],
                    row[3],
                    candidate[0],
                    candidate[1],
                    candidate[2],
                    transport_code,
                    row[1],
                    candidate[3],
                    port,
                    bytes_down,
                    bytes_up,
                    (ceil(bytes_down / DEFAULT_PACKET_SIZE) or 1) if bytes_down > 0 else 0,
                    (ceil(bytes_up / DEFAULT_PACKET_SIZE) or 1) if bytes_up > 0 else 0,
                    0,
                )
            )
        # One tuple per flow in CATEGORICAL_COLUMNS + NUMERIC_COLUMNS order,
        # transposed once; ``struct`` packs each column in one C call, so the
        # append copies typed arrays instead of converting item by item.
        count = len(flows)
        columns = [
            array(typecode, pack(f"{count}{typecode}", *column))
            for typecode, column in zip(_FLOW_TYPECODES, zip(*flows))
        ] or [()] * len(_FLOW_TYPECODES)
        table.append_columns(
            count,
            codes=dict(zip(CATEGORICAL_COLUMNS, columns)),
            numeric=dict(zip(_NUMERIC_NAMES, columns[len(CATEGORICAL_COLUMNS) :])),
        )

    # -- helpers -------------------------------------------------------------------

    @staticmethod
    def _device_multiplier(device: DeviceInstance) -> float:
        """Per-device volume multiplier giving bulk-ingestion providers a heavy tail."""
        if device.model.profile.name != "amqp_bulk":
            return 1.0
        bucket = stable_hash(device.device_id + ":volume", 100)
        if bucket < 20:
            return 4.0 + (bucket % 9)
        return 1.0
