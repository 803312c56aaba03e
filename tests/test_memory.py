"""What a deployment keeps per offered transaction stays inside a budget.

The figures come from ``tools/heap_per_tx.py`` (``tracemalloc`` snapshots
at window boundaries) on the ``paper-default`` shape, 32 tx per round.
Windows are short here to keep tier-1 quick, so they read above the
40-round windows PERFORMANCE.md quotes; each budget is a quarter over what
this configuration reads on Python 3.11: 739 and 1,164 B since a slot
keeps each label as its collector's signature tag beside the
transaction, not as the delivered upload (730 and 1,589 B before, since a
record awaiting its truth keeps only what its readers use and the oracle
keeps each truth as two bits of the transcript's flags; 776 and 1,660 B
before that;
787 and 1,676 B since one slot per transaction holds the networked host's
label evidence, Δ timers and packed bit; 1,928 B on the networked host
before it; 824 and 2,119–2,157 B before a signed record kept its
signature as a bare tag, not a ``Signature`` object; 920 and 3,178–3,192 B with the verdict and the
signed bytes on the signature; 1,543 and 3,805–3,843 B with the Identity
Manager's LRU; 3.2 KB and 9.3 KB before the budgets existed).  The
nightly soak checks that the figure stays flat as history grows.

The IM keeps no table of verdicts, so the last test here holds it to
what the table bought: no HMAC is computed twice for one question.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import pathlib

import pytest

from repro.crypto.identity import IdentityManager
from repro.workloads.scenarios import SCENARIOS, build

ROOT = pathlib.Path(__file__).parent.parent
PAPER_DEFAULT = SCENARIOS["paper-default"]


@pytest.fixture(scope="module")
def heap():
    path = ROOT / "tools" / "heap_per_tx.py"
    spec = importlib.util.spec_from_file_location("heap_per_tx", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_inproc_host_budget(heap):
    _engine, windows = heap.measure(PAPER_DEFAULT, rounds=20, windows=3)
    assert windows[-1].bytes_per_tx <= 915


def test_net_host_budget(heap):
    # In-memory store; rounds 11-20.
    scenario = dataclasses.replace(PAPER_DEFAULT, host="net")
    _engine, (window,) = heap.measure(scenario, rounds=10)
    assert window.bytes_per_tx <= 1_455


@pytest.mark.parametrize("host", ["inproc", "net"])
def test_no_hmac_is_recomputed(monkeypatch, host):
    """Each IM computes one HMAC per distinct ``(signer, message, tag)`` it
    is asked about, however long after the first check a question repeats."""
    asked: dict[int, set] = {}
    verify = IdentityManager.verify

    def counting(im, record):
        # Only the questions that reach the HMAC: an unknown sender is
        # rejected before any verdict.
        sender_id, tag = record.signed_by(record)
        if im.is_enrolled(sender_id):
            question = (sender_id, record.signed_message(), tag)
            asked.setdefault(id(im), set()).add(question)
        return verify(im, record)

    monkeypatch.setattr(IdentityManager, "verify", counting)
    scenario = dataclasses.replace(PAPER_DEFAULT, host=host)
    engine, workload, scenario = build(scenario, seed=0)
    try:
        for _ in range(80):
            engine.run_round(workload.take(scenario.batch))
    finally:
        engine.close()
    im = engine.im
    assert list(asked) == [id(im)]  # one IM per deployment
    assert im.sig_cache_hits > im.sig_cache_misses == len(asked[id(im)])
