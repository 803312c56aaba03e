"""Application domains: the paper's Section-5 use cases.

Car-sharing (:mod:`repro.apps.carsharing`) and insurance
(:mod:`repro.apps.insurance`) run materialized populations on
:class:`~repro.core.protocol.ProtocolEngine`.  Import each name from its
defining module.
"""
