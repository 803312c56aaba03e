"""Workload generators, arrival processes and the preset registry.

Import from the defining modules (this init imports nothing):
:mod:`~repro.workloads.generator`, :mod:`~repro.workloads.arrivals`,
:mod:`~repro.workloads.replay`, :mod:`~repro.workloads.scenarios`,
:mod:`~repro.workloads.xshard`.
"""
