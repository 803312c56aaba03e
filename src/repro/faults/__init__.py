"""Deterministic fault injection for the simulated network.

The paper assumes a synchronous, fault-free substrate; this package
models the cracks — per-link message loss/duplication/reordering, timed
crash-stop and crash-recovery node faults, and partition windows — as a
seeded :class:`~repro.faults.plan.FaultPlan` executed by a
:class:`~repro.faults.injector.FaultInjector` hooked into
:class:`~repro.network.simnet.SyncNetwork`.  The recovery machinery it
exercises lives in ``repro.network.reliable`` (ack/retransmit channels),
``repro.network.broadcast`` (gap repair with sequencer failover), and
``repro.core.netengine`` (crash-recovery wiring).
:class:`~repro.faults.disk.DiskFaultPlan` extends the same seeded-fault
idea to bytes at rest: it corrupts a durable ledger directory
(:mod:`repro.storage`) so the restart-from-disk path is tested
adversarially too.
"""
