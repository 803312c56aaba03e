"""The one guard every fork the library makes keeps: no thread beside it.

A forked child inherits, held for ever, every lock another thread held
at that instant; so the shard pool and the custodian launcher refuse to
fork while any other Python thread is alive, with no fallback.
"""

from __future__ import annotations

import threading

from repro.exceptions import ConfigurationError

__all__ = ["refuse_beside_threads"]


def refuse_beside_threads(what: str) -> None:
    """Raise ``ConfigurationError`` naming every other live Python thread."""
    me = threading.current_thread()
    others = [thread.name for thread in threading.enumerate() if thread is not me]
    if others:
        raise ConfigurationError(f"cannot fork {what} beside live threads {others}")
