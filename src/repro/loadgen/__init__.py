"""repro.loadgen — deterministic multi-tenant load generation.

The measurement companion to :mod:`repro.tenancy`: a driver
(:mod:`~repro.loadgen.driver`) that plays Zipf-skewed tenant
populations — tens of thousands of tenants, scripted aggressors —
through the shipped serving path (``client.aio`` behind a tenancy
layer and a fair or FIFO bulkhead) as tasks on one virtual loop,
reporting per-tenant p50/p99 latency, shed rates and Jain's fairness
index (:mod:`~repro.loadgen.report`); plus an end-to-end smoke scenario
(:mod:`~repro.loadgen.smoke`) that machine-checks the tenant-isolation
contract through the JSON gateway.  ``python -m repro.loadgen --help``
for the CLI.
"""

from repro.loadgen.driver import (
    DISCIPLINE_FAIR,
    DISCIPLINE_FIFO,
    LoadDriver,
    LoadSpec,
    run_spec,
)
from repro.loadgen.report import RunReport, TenantStats, jain_index
from repro.loadgen.workload import Aggressor, TenantPopulation, ZipfSampler

__all__ = [
    "LoadSpec",
    "LoadDriver",
    "run_spec",
    "RunReport",
    "TenantStats",
    "jain_index",
    "Aggressor",
    "TenantPopulation",
    "ZipfSampler",
    "DISCIPLINE_FAIR",
    "DISCIPLINE_FIFO",
]
