"""Byzantine adversary suite: tampering, strategies, scripted scenarios.

Three escalating adversary layers over the fault subsystem
(:mod:`repro.faults`), all seeded and deterministic:

* :mod:`~repro.byzantine.tampering` — in-flight *message* corruption
  (signature stripping, label flipping, replays, block corruption),
  installed as the :class:`~repro.faults.injector.FaultInjector`'s ``tamperer``;
* :mod:`~repro.byzantine.strategies` — *agent-level* misbehaviour:
  a colluding collector cartel targeting one provider, an adaptive
  attacker conditioning on its own current reputation, and a two-faced
  collector that signs conflicting labels (provable equivocation);
* :mod:`~repro.byzantine.scenario` — scripted attacks against the
  networked engine (commit-vote equivocation, reputation probes).

The :mod:`repro.audit` layer is the defence these adversaries exist to
exercise; ``tests/test_byzantine.py`` and the chaos soak pin down what
each attack can and cannot achieve.
"""
