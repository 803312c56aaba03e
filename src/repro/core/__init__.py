"""The paper's contribution: reputation mechanism, screening, protocol.

Import from the defining modules (this init imports nothing):

* :mod:`repro.core.params` — ``ProtocolParams``, all tunables (f, beta,
  mu, nu, U, b_limit).
* :mod:`repro.core.reputation` — ``ReputationBook`` /
  ``ReputationVector``, the (s+2)-vectors.
* :mod:`repro.core.screening` — ``screen_transaction``, Algorithm 2.
* :mod:`repro.core.updating` — Algorithm 3's three cases.
* :mod:`repro.core.game` — ``ReputationGame``, Theorem 1's focused
  simulation.
* :mod:`repro.core.protocol` / :mod:`repro.core.netengine` — the full
  three-tier round loop, in-process and networked.
* :mod:`repro.core.regret` — the paper's bounds as formulas.
"""
