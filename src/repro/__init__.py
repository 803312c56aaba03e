"""repro — reproduction of "An Efficient Permissioned Blockchain with
Provable Reputation Mechanism" (Chen et al., ICDCS 2021 poster;
arXiv:2002.06852).

A three-tier permissioned blockchain (providers / collectors /
governors) with a provable multiplicative-weights reputation mechanism:
governors skip verification of invalid-labeled transactions with a
tunable probability ``f`` and still suffer only ``O(sqrt(T))`` more loss
than the best collector (Theorem 1).

Quickstart::

    from repro.core.params import ProtocolParams
    from repro.core.protocol import ProtocolEngine
    from repro.network.topology import Topology
    from repro.workloads.generator import BernoulliWorkload

    topo = Topology.regular(l=16, n=8, m=4, r=4)
    engine = ProtocolEngine(topo, ProtocolParams(f=0.5))
    workload = BernoulliWorkload(topo.providers, p_valid=0.8, seed=7)
    for _ in range(10):
        engine.run_round(workload.take(32))
    engine.finalize()

Package inits import nothing, so each name has one import path (its
defining module), importing a module loads only what it needs, and a
custodian peer (:mod:`repro.network.custodian`) boots without loading
the engines.  Four inits are the exception: ``repro.apps`` is the
registry that ``build()`` looks up by ``Scenario.app``, and
``repro.obs``, ``repro.sharding`` and ``repro.storage`` re-export the
names the benchmark harness (``perfbench``) imports through them; its
tracer also relies on the ``sharding`` and ``storage`` inits loading
their layers.
See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

__version__ = "1.0.0"
