"""Synchronous network substrate.

One discrete-event loop and clock (:mod:`~repro.network.simnet`),
point-to-point channels with the synchrony bound Delta, atomic
(total-order) broadcast (:mod:`~repro.network.broadcast`), the reliable
channel (:mod:`~repro.network.reliable`), the Figure-1 topology builder
(:mod:`~repro.network.topology`), and the real-socket transport
(:mod:`~repro.network.realnet`) with its stdlib-only custodian peer
(:mod:`~repro.network.custodian`).  This init imports nothing.
"""
