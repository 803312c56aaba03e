"""Streaming populations: the paper's round over a virtual universe.

Open-loop transaction streams (:mod:`~repro.streaming.workload`) over
*virtual* provider populations (:mod:`~repro.streaming.universe`), run
by one deployment class, :class:`~repro.streaming.app.StreamingApp`:
identities instantiate on first arrival and retire on inactivity, so
resident memory is bounded by the active set — not the universe — while
the sparse reputation layer (:class:`~repro.core.reputation.SparseWeightMap`)
keeps governor state proportional to the rows actually touched.  This
init imports nothing.
"""
