"""ISP NetFlow substrate.

Models the paper's vantage point: a major European residential ISP monitoring
sampled NetFlow at its border routers.  The substrate consists of per-application
IoT device models, a subscriber-line population, a workload generator producing
a study period's hourly flows as a columnar ``FlowTable``, packet-sampled
NetFlow export, provider anonymization (T*/D*/O* labels), and scanner-host
traffic injection.
"""

from repro.flows.devices import ACTIVITY_PROFILES, ActivityProfile, DeviceModel, build_device_model
from repro.flows.subscribers import DeviceInstance, SubscriberLine, SubscriberPopulation
from repro.flows.netflow import FlowRecord, NetFlowCollector
from repro.flows.anonymize import AnonymizationMap
from repro.flows.workload import WorkloadGenerator

__all__ = [
    "ACTIVITY_PROFILES",
    "ActivityProfile",
    "DeviceModel",
    "build_device_model",
    "DeviceInstance",
    "SubscriberLine",
    "SubscriberPopulation",
    "FlowRecord",
    "NetFlowCollector",
    "AnonymizationMap",
    "WorkloadGenerator",
]
