"""Unit tests for the argue manager and the burial window U."""

from __future__ import annotations

import pytest

from repro.core.arguing import ArgueManager
from repro.exceptions import ProtocolViolationError


class TestRecording:
    def test_positions_sequential(self):
        mgr = ArgueManager(window=4)
        assert mgr.record_unchecked("t0") == 0
        assert mgr.record_unchecked("t1") == 1

    def test_double_record_rejected(self):
        mgr = ArgueManager(window=4)
        mgr.record_unchecked("t0")
        with pytest.raises(ProtocolViolationError):
            mgr.record_unchecked("t0")

    def test_window_must_be_positive(self):
        with pytest.raises(ProtocolViolationError):
            ArgueManager(window=0)

    def test_burial_depth(self):
        mgr = ArgueManager(window=4)
        mgr.record_unchecked("t0")
        assert mgr.burial_depth("t0") == 0
        mgr.record_unchecked("t1")
        mgr.record_unchecked("t2")
        assert mgr.burial_depth("t0") == 2
        assert mgr.burial_depth("t2") == 0

    def test_burial_depth_unknown_tx(self):
        with pytest.raises(ProtocolViolationError):
            ArgueManager(window=4).burial_depth("ghost")


class TestArguing:
    def test_timely_argue_admitted(self):
        mgr = ArgueManager(window=2)
        mgr.record_unchecked("t0")
        mgr.record_unchecked("t1")
        outcome = mgr.argue("t0")
        assert outcome.accepted

    def test_argue_at_exact_window_admitted(self):
        mgr = ArgueManager(window=2)
        mgr.record_unchecked("t0")
        mgr.record_unchecked("t1")
        mgr.record_unchecked("t2")  # depth of t0 is now exactly 2
        assert mgr.argue("t0").accepted

    def test_buried_argue_rejected(self):
        mgr = ArgueManager(window=2)
        for i in range(4):
            mgr.record_unchecked(f"t{i}")  # depth of t0 is 3 > 2
        outcome = mgr.argue("t0")
        assert not outcome.accepted
        assert "buried" in outcome.reason

    def test_duplicate_argue_rejected(self):
        mgr = ArgueManager(window=4)
        mgr.record_unchecked("t0")
        assert mgr.argue("t0").accepted
        assert not mgr.argue("t0").accepted

    def test_never_unchecked_rejected(self):
        assert not ArgueManager(window=4).argue("ghost").accepted

    def test_resolve_silently_blocks_later_argue(self):
        mgr = ArgueManager(window=4)
        mgr.record_unchecked("t0")
        mgr.resolve_silently("t0")
        assert not mgr.argue("t0").accepted

    def test_resolve_silently_unknown_is_noop(self):
        ArgueManager(window=4).resolve_silently("ghost")
