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

:meth:`WorkloadGenerator.generate_period_table` appends each day's flows straight
into dictionary-encoded :class:`~repro.flows.flowtable.FlowTable` columns.  All
per-device invariants — candidate server subsets (which cost several SHA-256
hashes to resolve; each provider's candidate pools are resolved once per
generator), per-model hourly activity probabilities, cumulative port weights,
volume multipliers, dictionary codes for every categorical value — are
resolved once per world: the device plans and their encoding are shared by
every generator of a world (:class:`SharedPlans`), and each period's table
starts from the encoding's pools, so the hourly draw loop touches only the
RNG and plain ints/floats.

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

One draw loop serves both kernel backends: per flow it keeps only the picked
candidate, the accepted normal deviate ``z``, the port roll and the traffic
factor, in typed arrays.  At the end of each day a column builder turns those
draws into the day's rows: :func:`build_flow_columns` flow by flow, or
:func:`repro.flows.kernels_np.build_flow_columns` in bulk when the numpy
backend is active.  Both compute every value with the same IEEE-754 operations
(``math.exp`` included), so the tables are byte-identical on either backend.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from datetime import datetime, time
from functools import cached_property, partial
from random import NV_MAGICCONST
from struct import pack
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.providers import PROVIDERS, ProviderSpec
from repro.flows import kernels
from repro.flows.devices import DeviceModel
from repro.flows.flowtable import (
    CATEGORICAL_COLUMNS,
    COLUMN_TYPECODES,
    NUMERIC_COLUMNS,
    FlowTable,
)
from repro.flows.netflow import DEFAULT_PACKET_SIZE
from repro.flows.scanners import append_scanner_flows
from repro.flows.subscribers import DeviceInstance, SubscriberPopulation
from repro.netmodel.geo import CONTINENT_EUROPE, CONTINENT_NORTH_AMERICA
from repro.netmodel.topology import ProviderDeployment
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.outage.injector import OutageSchedule
from repro.simulation.clock import StudyPeriod
from repro.simulation.rng import RngRegistry, stable_hash

_NUMERIC_NAMES = tuple(name for name, _typecode in NUMERIC_COLUMNS)


@dataclass(frozen=True)
class _ServerChoice:
    """A pre-resolved server option for device flows."""

    ip: str
    continent: str
    region_code: str
    cloud_host: Optional[str]


#: One provider's candidate pools for one ip version: every server, the
#: globally load-balanced spread pool, the European pool, whether any server
#: is outside Europe, and the remote-entry subset.
_ProviderPools = Tuple[
    List[_ServerChoice], List[_ServerChoice], List[_ServerChoice], bool, List[_ServerChoice]
]


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


@dataclass
class _EncodedPlans:
    """The device plans encoded against one table's pools (RNG-free).

    Per-device lists follow population order.  Per-candidate fields hold
    every device's candidate servers back to back (device ``d``'s from
    ``first_candidate[d]``), each with its device's values.  Per-port-table
    fields hold one entry per distinct port table.  The draw loop reads the
    plain lists; the column builders read the typed arrays and port tables.
    """

    #: For each hour of day, every device's activity probability.
    hour_probabilities: Tuple[List[float], ...]
    volume_sigma: float
    volume_correction: float
    #: Every categorical column's pool values right after encoding, in order.
    pools: Dict[str, List[object]] = field(default_factory=dict)
    # -- per device
    candidate_count: List[int] = field(default_factory=list)
    pick_bits: List[int] = field(default_factory=list)
    first_candidate: List[int] = field(default_factory=list)
    # -- per candidate server
    outage_key: List[int] = field(default_factory=list)
    server_ip: array = field(default_factory=partial(array, "i"))
    server_continent: array = field(default_factory=partial(array, "i"))
    server_region: array = field(default_factory=partial(array, "i"))
    ip_version: array = field(default_factory=partial(array, "b"))
    line_id: array = field(default_factory=partial(array, "q"))
    prefix: array = field(default_factory=partial(array, "i"))
    provider: array = field(default_factory=partial(array, "i"))
    per_hour_down: array = field(default_factory=partial(array, "d"))
    per_hour_up: array = field(default_factory=partial(array, "d"))
    multiplier: array = field(default_factory=partial(array, "d"))
    port_table: array = field(default_factory=partial(array, "i"))
    #: Distinct (cloud_host, region) keys the outage schedule is asked about.
    outage_keys: List[Tuple[Optional[str], str]] = field(default_factory=list)
    # -- per port table
    port_cumulative: List[Tuple[float, ...]] = field(default_factory=list)
    port_transport: List[Tuple[int, ...]] = field(default_factory=list)
    port_number: List[Tuple[int, ...]] = field(default_factory=list)

    def new_table(self) -> FlowTable:
        """An empty table whose pools hold :attr:`pools` in order, so its
        codes are the encoded ones."""
        table = FlowTable()
        for name, values in self.pools.items():
            for value in values:
                table.encode_value(name, value)
        return table

    @cached_property
    def candidate_rows(self) -> List[tuple]:
        """Per candidate, one flat tuple for the python builder to unpack.

        The per-candidate values in field order, then the port table's
        cumulative weights, transport codes, port numbers and last index.
        """
        port_tables = [
            (cumulative, transports, numbers, len(cumulative) - 1)
            for cumulative, transports, numbers in zip(
                self.port_cumulative, self.port_transport, self.port_number
            )
        ]
        return [
            (*values, *port_tables[table])
            for *values, table in zip(
                self.server_ip,
                self.server_continent,
                self.server_region,
                self.ip_version,
                self.line_id,
                self.prefix,
                self.provider,
                self.per_hour_down,
                self.per_hour_up,
                self.multiplier,
                self.port_table,
            )
        ]


@dataclass
class SharedPlans:
    """The device plans of one world and their first encoding.

    Every workload generator of a world shares one instance: the first to
    generate fills ``plans`` and keeps its :class:`_EncodedPlans` in
    ``encoding``; the others reuse both.
    """

    plans: List[_DevicePlan] = field(default_factory=list)
    encoding: Optional[_EncodedPlans] = None


@dataclass
class _DayDraws:
    """The draws of one day's device flows, one entry per flow in draw order.

    ``candidate`` is the picked server's index among all candidates (it
    names the device too), ``z`` the accepted Kinderman–Monahan normal
    deviate, ``port_u`` the port roll and ``traffic_factor`` the outage
    traffic retention (1.0 outside outage windows).  ``hours`` holds one
    ``(timestamp_code, flow_count)`` pair per hour, in hour order.
    """

    candidate: array = field(default_factory=partial(array, "i"))
    z: array = field(default_factory=partial(array, "d"))
    port_u: array = field(default_factory=partial(array, "d"))
    traffic_factor: array = field(default_factory=partial(array, "d"))
    hours: List[Tuple[int, int]] = field(default_factory=list)


class WorkloadGenerator:
    """Generates hourly flow tables for a subscriber population and deployments.

    ``device_plans`` lets generators over the same population, deployments
    and ``servers_per_device`` share one list of device plans and its
    encoding (see :meth:`_device_plans` and :meth:`_encoded_plans`): the
    first to need them fills the :class:`SharedPlans`, the others reuse it.
    """

    def __init__(
        self,
        population: SubscriberPopulation,
        deployments: Mapping[str, ProviderDeployment],
        rng: RngRegistry,
        outage_schedule: Optional[OutageSchedule] = None,
        providers: Sequence[ProviderSpec] = PROVIDERS,
        servers_per_device: int = 2,
        volume_sigma: float = 0.75,
        device_plans: Optional[SharedPlans] = None,
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
        self._shared = SharedPlans() if device_plans is None else device_plans
        self._candidate_pools: Dict[Tuple[str, int], Optional[_ProviderPools]] = {}

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
        pools = self._provider_pools(device.provider_key, ip_version)
        if pools is None:
            return []
        all_choices, spread_pool, eu_pool, has_remote, remote_entry = pools
        model = device.model
        if model.global_server_selection:
            return self._hash_subset(device.device_id, spread_pool, self.servers_per_device * 4)
        assigned_to_eu = (
            bool(eu_pool)
            and (
                not has_remote
                or stable_hash(device.device_id + ":region", 1000) < int(model.eu_share * 1000)
            )
        )
        pool = eu_pool if assigned_to_eu else remote_entry
        if not pool:
            pool = all_choices
        return self._hash_subset(device.device_id, pool, self.servers_per_device)

    def _provider_pools(self, provider_key: str, ip_version: int) -> Optional[_ProviderPools]:
        """The candidate pools of one provider and ip version (``None``: no servers).

        Resolved once per generator: every pool, and the provider-wide
        remote-entry subset, which costs two SHA-256 hashes.
        """
        key = (provider_key, ip_version)
        if key in self._candidate_pools:
            return self._candidate_pools[key]
        by_version = self._choices.get(provider_key, {})
        pools = by_version.get(ip_version) or by_version.get(4) or {}
        resolved: Optional[_ProviderPools] = None
        if pools:
            all_choices = [choice for choices in pools.values() for choice in choices]
            # Globally load-balanced providers spread European devices across their
            # whole European and North-American fleet, which is why almost all of
            # their backend addresses are visible from the ISP (the paper's T2).
            spread_pool = [
                c
                for c in all_choices
                if c.continent in (CONTINENT_EUROPE, CONTINENT_NORTH_AMERICA)
            ] or all_choices
            eu_pool = pools.get(CONTINENT_EUROPE, [])
            remote_pool = [c for c in all_choices if c.continent != CONTINENT_EUROPE]
            # Remote-assigned European devices are provisioned against the provider's
            # main remote region (typically a large North-American region), not spread
            # over the whole remote fleet: only a handful of remote entry points are
            # therefore ever visible from the ISP (Section 5.2).
            na_pool = [c for c in remote_pool if c.continent == CONTINENT_NORTH_AMERICA]
            entry_pool = na_pool or remote_pool or eu_pool
            entry_count = max(self.servers_per_device, len(entry_pool) // 8)
            remote_entry = self._hash_subset(
                provider_key + ":remote-entry", entry_pool, entry_count
            )
            resolved = (all_choices, spread_pool, eu_pool, bool(remote_pool), remote_entry)
        self._candidate_pools[key] = resolved
        return resolved

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

        Each day's hours are drawn in order, one ``gen.hour`` span each; the
        active kernel backend's column builder then turns the day's draws
        into rows, appended straight into ``FlowTable`` columns, followed by
        that day's scanner traffic when ``include_scanners`` is set.  The
        table's length is added to the ``gen.rows`` counter.
        """
        with span("gen.period", start=period.start.isoformat()):
            plan = self._encoded_plans()
            table = plan.new_table()
            scanner_lines = self.population.scanner_lines() if include_scanners else []
            catalog = self.server_catalog(ip_version=4) if include_scanners else []
            for day in period.days():
                draws = _DayDraws()
                for hour in range(24):
                    when = datetime.combine(day, time(hour=hour))
                    with span("gen.hour", hour=when.isoformat()):
                        # Interned in hour order: the pool order is part of
                        # the table's bytes.
                        timestamp_code = table.encode_value("timestamp", when)
                        self._draw_hour(plan, draws, when, timestamp_code)
                columns = _day_columns(plan, draws)
                table.append_columns(
                    len(draws.candidate),
                    codes=dict(zip(CATEGORICAL_COLUMNS, columns)),
                    numeric=dict(zip(_NUMERIC_NAMES, columns[len(CATEGORICAL_COLUMNS) :])),
                )
                if include_scanners:
                    with span("gen.scanners", day=day.isoformat()):
                        append_scanner_flows(table, scanner_lines, catalog, day, self.rng)
        obs_metrics.inc("gen.rows", len(table))
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
        """Flatten the population into per-device plans (population order).

        Built on first use into the (possibly shared) plan list: resolving
        the candidate servers costs several SHA-256 hashes per device.  A
        plan draws no random value and holds nothing of the outage schedule,
        which the hourly draws consult instead.
        """
        plans = self._shared.plans
        if not plans:
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
        return plans

    def _encoded_plans(self) -> _EncodedPlans:
        """The device plans encoded against an empty table's dictionary pools.

        Encoded once per world: every period's table interns the same
        population-order values before its first row, so the first encoding
        is kept with the shared plans and every period's table starts from
        its pools (:meth:`_EncodedPlans.new_table`), which gives the same
        codes.  The volume sigma and correction are per generator, so a
        generator whose sigma differs from the kept encoding's encodes its
        own, and keeps nothing.
        """
        shared = self._shared
        if shared.encoding is not None and shared.encoding.volume_sigma == self.volume_sigma:
            return shared.encoding
        # Values are interned device by device in population order, so every
        # pool keeps the order the rows first reference it in.
        table = FlowTable()
        encode = table.encode_value
        plans = self._device_plans()
        outage_index: Dict[Tuple[Optional[str], str], int] = {}
        port_index: Dict[Tuple[Tuple[float, ...], Tuple[Tuple[str, int], ...]], int] = {}
        encoded = _EncodedPlans(
            hour_probabilities=tuple(
                [plan.probabilities[hour] for plan in plans] for hour in range(24)
            ),
            volume_sigma=self.volume_sigma,
            volume_correction=self._volume_correction,
            pools={name: table.pool(name) for name in CATEGORICAL_COLUMNS},
        )
        for plan in plans:
            prefix = encode("subscriber_prefix", plan.prefix)
            provider = encode("provider_key", plan.provider_key)
            ports_key = (plan.port_cumulative, plan.port_pairs)
            ports = port_index.get(ports_key)
            if ports is None:
                ports = port_index[ports_key] = len(encoded.port_cumulative)
                encoded.port_cumulative.append(plan.port_cumulative)
                encoded.port_transport.append(
                    tuple(encode("transport", transport) for transport, _port in plan.port_pairs)
                )
                encoded.port_number.append(tuple(port for _transport, port in plan.port_pairs))
            n_candidates = len(plan.candidates)
            encoded.candidate_count.append(n_candidates)
            encoded.pick_bits.append(n_candidates.bit_length())
            encoded.first_candidate.append(len(encoded.server_ip))
            for choice, version in zip(plan.candidates, plan.versions):
                key = (choice.cloud_host, choice.region_code)
                key_index = outage_index.get(key)
                if key_index is None:
                    key_index = outage_index[key] = len(encoded.outage_keys)
                    encoded.outage_keys.append(key)
                encoded.outage_key.append(key_index)
                encoded.server_ip.append(encode("server_ip", choice.ip))
                encoded.server_continent.append(encode("server_continent", choice.continent))
                encoded.server_region.append(encode("server_region", choice.region_code))
                encoded.ip_version.append(version)
                encoded.line_id.append(plan.line_id)
                encoded.prefix.append(prefix)
                encoded.provider.append(provider)
                encoded.per_hour_down.append(plan.per_hour_down)
                encoded.per_hour_up.append(plan.per_hour_up)
                encoded.multiplier.append(plan.multiplier)
                encoded.port_table.append(ports)
        if shared.encoding is None:
            shared.encoding = encoded
        return encoded

    def _draw_hour(
        self, plan: _EncodedPlans, draws: _DayDraws, when: datetime, timestamp_code: int
    ) -> None:
        """Draw one hour of device flows from the hour's stream into ``draws``.

        Consumes the stream in the v1 layout (see the module docstring): per
        device, one ``random()`` activity roll; for devices that emit a flow,
        a ``getrandbits(n.bit_length())`` server pick with rejection, a
        ``random()`` outage roll only when the server's device factor is
        < 1, Kinderman–Monahan ``random()`` pairs for the lognormal volume
        and a ``random()`` port roll.  These are exactly the draws
        ``randrange`` and ``lognormvariate`` make.  Only the draws a flow's
        columns depend on are kept; a column builder turns them into rows.
        """
        stream = self.rng.fresh_stream(f"workload:{when.isoformat()}")
        rand = stream.random
        getrandbits = stream.getrandbits
        # One schedule lookup per distinct (cloud_host, region) key per hour
        # instead of two per flow; outside outage windows the lookup is skipped
        # entirely (factors are 1.0 and no outage roll is drawn).
        schedule = self.outage_schedule
        if any(event.active_at(when) for event in schedule.events()):
            traffic_factors = [
                schedule.traffic_factor(host, region, when) for host, region in plan.outage_keys
            ]
            device_factors = [
                schedule.device_factor(host, region, when) for host, region in plan.outage_keys
            ]
        else:
            traffic_factors = device_factors = None
        counts = plan.candidate_count
        bits = plan.pick_bits
        first_candidate = plan.first_candidate
        outage_key = plan.outage_key
        magic = NV_MAGICCONST
        log = math.log
        add_candidate = draws.candidate.append
        add_z = draws.z.append
        add_port_u = draws.port_u.append
        add_traffic_factor = draws.traffic_factor.append
        start = len(draws.candidate)
        for device, probability in enumerate(plan.hour_probabilities[when.hour]):
            if rand() >= probability:
                continue
            n = counts[device]
            if not n:
                continue
            k = bits[device]
            pick = getrandbits(k)
            while pick >= n:
                pick = getrandbits(k)
            candidate = first_candidate[device] + pick
            if device_factors is not None:
                key = outage_key[candidate]
                device_factor = device_factors[key]
                if device_factor < 1.0 and rand() > device_factor:
                    continue
                add_traffic_factor(traffic_factors[key])
            while True:
                u1 = rand()
                u2 = 1.0 - rand()
                z = magic * (u1 - 0.5) / u2
                if z * z / 4.0 <= -log(u2):
                    break
            add_candidate(candidate)
            add_z(z)
            add_port_u(rand())
        flows = len(draws.candidate) - start
        if device_factors is None:
            draws.traffic_factor.extend(array("d", [1.0]) * flows)
        draws.hours.append((timestamp_code, flows))

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


def _day_columns(plan: _EncodedPlans, draws: _DayDraws) -> List[array]:
    """One day's flow columns on the active kernel backend's builder."""
    if kernels.active_backend() == kernels.BACKEND_NUMPY:
        from repro.flows import kernels_np

        columns = kernels_np.build_flow_columns(plan, draws)
        if columns is not NotImplemented:
            return columns
    return build_flow_columns(plan, draws)


def build_flow_columns(plan: _EncodedPlans, draws: _DayDraws) -> List[array]:
    """One day's flow columns from its draws, flow by flow (python builder).

    Returns one typed array per column in ``CATEGORICAL_COLUMNS +
    NUMERIC_COLUMNS`` order.  Per flow: the lognormal volume factor
    ``exp(z * sigma) * correction * multiplier``, the byte counts scaled by
    the traffic factor, the port at ``bisect_right`` of the roll times the
    total weight (clamped to the last port) and ``ceil`` packet counts.
    """
    sigma = plan.volume_sigma
    correction = plan.volume_correction
    candidates = plan.candidate_rows
    ceil = math.ceil
    exp = math.exp
    packet_size = DEFAULT_PACKET_SIZE
    flows: List[tuple] = []
    emit = flows.append
    for candidate, z, port_u, traffic_factor in zip(
        draws.candidate, draws.z, draws.port_u, draws.traffic_factor
    ):
        (
            ip_code,
            continent_code,
            region_code,
            ip_version,
            line_id,
            prefix_code,
            provider_code,
            per_hour_down,
            per_hour_up,
            multiplier,
            cumulative,
            transports,
            numbers,
            last,
        ) = candidates[candidate]
        volume_factor = exp(z * sigma) * correction * multiplier
        bytes_down = per_hour_down * volume_factor * traffic_factor
        bytes_up = per_hour_up * volume_factor * traffic_factor
        index = bisect_right(cumulative, port_u * cumulative[-1])
        if index > last:
            index = last
        emit(
            (
                prefix_code,
                provider_code,
                ip_code,
                continent_code,
                region_code,
                transports[index],
                line_id,
                ip_version,
                numbers[index],
                bytes_down,
                bytes_up,
                (ceil(bytes_down / packet_size) or 1) if bytes_down > 0 else 0,
                (ceil(bytes_up / packet_size) or 1) if bytes_up > 0 else 0,
            )
        )
    count = len(flows)
    timestamps = array("i")
    for timestamp_code, hour_flows in draws.hours:
        timestamps.extend(array("i", [timestamp_code]) * hour_flows)
    # The columns between the timestamp and the (all-zero) sampled flag: one
    # tuple per flow, transposed once; ``struct`` packs each column in one C
    # call, so the append copies typed arrays instead of converting item by
    # item.
    typecodes = COLUMN_TYPECODES[1:-1]
    if count:
        columns = [
            array(typecode, pack(f"{count}{typecode}", *column))
            for typecode, column in zip(typecodes, zip(*flows))
        ]
    else:
        columns = [array(typecode) for typecode in typecodes]
    return [timestamps, *columns, array("b", bytes(count))]
