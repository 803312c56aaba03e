"""The zero-latency protocol engine: collecting, uploading, processing, arguing.

:class:`ProtocolEngine` is a thin shell over :class:`~repro.core.roundcore.RoundCore`:
a constructor, :meth:`~ProtocolEngine.run_round`, which executes the
round with every hand-off delivered at once, and
:meth:`~ProtocolEngine.finalize`.  Everything else — enrolment, the
population's partial view, provider abuse, PoS election, the kept
records and the pack, stake transfer and expulsion, rewards — is the
round's, so the networked engine has it too.  It is the one
zero-latency engine: the ``stream`` host
(:class:`~repro.streaming.app.StreamingApp`) is this engine over a lazy
population.  It counts no messages; the networked engine's network
counters are the packet-level record.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.agents.behaviors import ArgueAbuse, CollectorBehavior
from repro.core.params import ProtocolParams
from repro.core.roundcore import RoundCore, RoundResult
from repro.ledger.properties import UPLOADED
from repro.ledger.store import BlockStore
from repro.ledger.transaction import LabeledTransaction, TxRecord
from repro.network.topology import Topology
from repro.obs.registry import MetricsRegistry
from repro.workloads.generator import TxSpec

__all__ = ["ProtocolEngine"]


class ProtocolEngine(RoundCore):
    """In-process execution of the full three-tier protocol.

    Args:
        topology: The provider/collector/governor link structure, with
            its governors' view: a :class:`~repro.network.topology.Topology`,
            or a population that answers the same questions lazily.
        params: Protocol parameters.
        behaviors: agent id -> behaviour: a collector's
            ``CollectorBehavior``, a provider's ``ArgueAbuse``; missing
            ids are honest.
        seed: Master seed; every agent draw is keyed by it.
        stake: governor id -> stake units (default: 1 each).
        obs: Optional :class:`~repro.obs.MetricsRegistry`; when given,
            the engine, its governors, and their reputation books feed
            the ``engine_* / gov_* / rep_*`` metric families (see
            OBSERVABILITY.md).  Observability never touches RNG or
            control flow, so seeded runs are bit-identical with it on,
            off, or absent.
    """

    def __init__(
        self,
        topology: Topology,
        params: ProtocolParams,
        behaviors: Mapping[str, CollectorBehavior | ArgueAbuse] | None = None,
        seed: int = 0,
        stake: Mapping[str, int] | None = None,
        obs: MetricsRegistry | None = None,
    ):
        super().__init__(params, seed, obs)
        self.topology = topology
        self.store = BlockStore()
        self._register_engine_metrics()
        self._enroll(topology, behaviors, stake)

    # -- round execution -------------------------------------------------

    def run_round(self, specs: Sequence[TxSpec]) -> RoundResult:
        """Execute one full round over the given workload batch, every
        hand-off delivered at once."""
        round_number = self._begin_round(specs)
        timestamp = float(round_number)

        # Collecting and uploading: every linked collector labels.
        uploads: list[LabeledTransaction] = []
        flags = self.transcript.flags
        for provider, tx in self._originate(specs, self.providers.__getitem__, timestamp):
            for cid in provider.linked_collectors:
                for labeled in self.collectors[cid].process_all(tx, self.oracle):
                    uploads.append(labeled)
                    flags[tx.tx_id] |= UPLOADED
        # Forgery opportunities: once per collector per round.
        forged = 0
        for collector in self.collectors.values():
            upload = collector.maybe_forge(timestamp, round_number)
            if upload is not None:
                uploads.append(upload)
                forged += 1

        # Processing: every governor screens independently (own draws,
        # own book) what its view receives and keeps it until a block
        # holds it; the leader packs what it keeps.
        leader_id = self.election.run(self.stake, round_number)
        for gid, governor in self.governors.items():
            view = governor.view
            seen = uploads if view is None else [u for u in uploads if u.collector in view]
            for upload in seen:
                governor.ingest_upload(upload)
            self._kept[gid] += governor.screen_pending()
        prev_hash = self.governors[leader_id].ledger.tip_hash()
        block = self._pack(leader_id, prev_hash, (), round_number)
        for governor in self.governors.values():
            governor.ledger.append(block)

        # Arguing: an admitted argue is re-validated by every governor
        # (case-3 update) and its record enters the next block.
        argues = 0
        for _provider, tx_id, _serial in self._argue_scan():
            argues += 1
            admitted: TxRecord | None = None
            for governor in self.governors.values():
                record = governor.handle_argue(tx_id)
                if record is not None:
                    admitted = record
            if admitted is not None:
                self._reevaluated_queue[tx_id] = admitted
        return self._close_round(RoundResult(
            block, len(specs), argues, len(self._reevaluated_queue), forged, uploads
        ))

    # -- finalisation -------------------------------------------------------

    def finalize(self) -> None:
        """Close the books: pack what an argue admitted in a closing round,
        then reveal every pending truth and check the Theorem-1 guardrail."""
        # The engine's own round: a host's run_round may add load (the
        # stream host's arrivals), and a closing round takes none.
        self._close_books(lambda: ProtocolEngine.run_round(self, ()))
