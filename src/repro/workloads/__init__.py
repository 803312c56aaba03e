"""Workload generators and arrival processes."""

from repro.workloads.arrivals import (
    ArrivalProcess,
    ConstantArrivals,
    DiurnalArrivals,
    PoissonArrivals,
)
from repro.workloads.replay import (
    RecordingWorkload,
    ReplayWorkload,
    dump_specs,
    load_specs,
)
from repro.workloads.scenarios import SCENARIOS, Scenario, build, scenario_names
from repro.workloads.generator import (
    BernoulliWorkload,
    BurstyWorkload,
    PerProviderWorkload,
    TxSpec,
    WorkloadGenerator,
)

__all__ = [
    "ArrivalProcess",
    "BernoulliWorkload",
    "BurstyWorkload",
    "ConstantArrivals",
    "DiurnalArrivals",
    "PerProviderWorkload",
    "PoissonArrivals",
    "RecordingWorkload",
    "ReplayWorkload",
    "SCENARIOS",
    "Scenario",
    "TxSpec",
    "WorkloadGenerator",
    "build",
    "dump_specs",
    "load_specs",
    "scenario_names",
]
