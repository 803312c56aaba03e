"""Typed metrics registry — counters, gauges, histograms with labels.

The observability layer the experiments and benches share.  Design
constraints, in order:

1. **Dependency-free and deterministic.**  Pure stdlib.  Export
   ordering is fully deterministic (sorted by metric name, then label
   values), so two identical seeded runs produce byte-identical exports
   of every family that measures the simulated protocol.  The families
   that measure the host instead — recovery replay seconds, the
   ``par_*`` wall histograms, ``tpt_*``, peak RSS — are listed in
   OBSERVABILITY.md.
2. **A component counts once, in its own record; the registry reads.**
   A counter or gauge is a name bound to reader functions
   (``registry.counter(name, help, labels, read=fn)``): the plain
   ``+= 1`` on the component's record is the only bookkeeping, it costs
   the same with a live registry, a disabled one or none, and the
   exporters evaluate the readers when asked.  Histograms and spans are
   the only things pushed — a distribution has no plain twin.  On a
   disabled registry (:data:`NULL_REGISTRY`, what ``obs=None`` means)
   declaring retains nothing and histogram handles swallow ``observe``.
   Readers draw no randomness and the protocol never reads the
   registry, so a seeded run's ledger and RNG consumption are
   bit-identical whether observability is on, disabled, or absent.
3. **Prometheus-compatible naming.**  ``*_total`` counters, base-unit
   histograms, label sets declared at registration.  The exporters in
   :mod:`repro.obs.export` emit the standard text exposition format.

Metric registration is idempotent: asking for an already-registered
name with the same type and label names returns the existing metric
(many governors share one registry), while a conflicting re-registration
raises :class:`~repro.exceptions.ConfigurationError`.

Sim-time spans live on the same registry (see :mod:`repro.obs.spans`):
``registry.record_span("round", start, end, round="3")`` with both
endpoints read from the simulator's clock by the caller.
"""

from __future__ import annotations

import operator
import re
from typing import Callable, Iterable, Mapping

from repro.exceptions import ConfigurationError
from repro.obs.spans import Span

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "DEFAULT_BUCKETS",
]

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")

#: Default histogram buckets, tuned for simulated-seconds latencies
#: (network delays are 5-100 ms; retransmit backoffs reach a few
#: seconds).  Dimensionless histograms (block sizes, update magnitudes)
#: declare their own buckets.
DEFAULT_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)


def _label_key(
    metric: "_Metric", values: Mapping[str, str]
) -> tuple[str, ...]:
    if set(values) != set(metric.label_names):
        raise ConfigurationError(
            f"metric {metric.name!r} takes labels {metric.label_names}, "
            f"got {tuple(sorted(values))}"
        )
    return tuple(str(values[name]) for name in metric.label_names)


class _Metric:
    """Shared machinery: one named metric with a fixed label schema."""

    kind = "untyped"

    def __init__(self, name: str, help: str, label_names: tuple[str, ...]):
        self.name = name
        self.help = help
        self.label_names = label_names

    def _require_unlabeled(self) -> None:
        if self.label_names:
            raise ConfigurationError(
                f"metric {self.name!r} needs labels {self.label_names}"
            )

    def samples(self) -> Iterable[tuple[tuple[str, ...], object]]:
        """(label values, value) pairs in deterministic (sorted) order."""
        raise NotImplementedError


class _ReadMetric(_Metric):
    """A counter or gauge: a name bound to the readers that know its value.

    The registry stores no number.  A reader is a zero-argument callable
    returning the family's current value off the record of the component
    that attached it: a number for an unlabelled family, or a mapping
    ``label values -> number`` for a labelled one (the key is the bare
    value for one label name, a tuple in declaration order for several;
    values are coerced to ``str``).  A series exists once some reader
    returns its key, so label values that first appear mid-run need no
    pre-registration; an unlabelled family always has its one series.
    """

    def __init__(self, name: str, help: str, label_names: tuple[str, ...] = ()):
        super().__init__(name, help, label_names)
        self._readers: list[Callable[[], float | Mapping]] = []

    @staticmethod
    def _fold(earlier: float, later: float) -> float:
        """Two readers returned the same series: the family's value."""
        raise NotImplementedError

    def _series(self, reader: Callable[[], float | Mapping]) -> dict:
        got = reader()
        if not self.label_names:
            return {(): float(got)}
        series = {}
        for key, value in got.items():
            key = key if isinstance(key, tuple) else (key,)
            if len(key) != len(self.label_names):
                raise ConfigurationError(
                    f"metric {self.name!r} takes labels {self.label_names}, "
                    f"a reader returned {key}"
                )
            series[tuple(str(part) for part in key)] = float(value)
        return series

    def _collect(self) -> dict[tuple[str, ...], float]:
        values: dict[tuple[str, ...], float] = {} if self.label_names else {(): 0.0}
        for reader in self._readers:
            for key, value in self._series(reader).items():
                values[key] = self._fold(values[key], value) if key in values else value
        return values

    @property
    def value(self) -> float:
        """The unlabeled series' current value."""
        self._require_unlabeled()
        return self._collect()[()]

    def value_of(self, **values: str) -> float:
        """One labeled series' current value (0 if no reader returns it)."""
        return self._collect().get(_label_key(self, values), 0.0)

    def samples(self) -> Iterable[tuple[tuple[str, ...], float]]:
        return sorted(self._collect().items())


class Counter(_ReadMetric):
    """A monotonically increasing count; several readers' values add."""

    kind = "counter"
    _fold = staticmethod(operator.add)


class Gauge(_ReadMetric):
    """A value that can go up and down; the reader attached last wins."""

    kind = "gauge"

    @staticmethod
    def _fold(earlier: float, later: float) -> float:
        return later


class _HistogramState:
    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, n_buckets: int):
        self.bucket_counts = [0] * n_buckets
        self.sum = 0.0
        self.count = 0


class Histogram(_Metric):
    """A distribution over fixed, ascending buckets.

    Stores per-bucket counts plus sum/count; the Prometheus exporter
    renders the conventional cumulative ``_bucket{le=...}`` series with
    a trailing ``+Inf``.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help, label_names)
        if not buckets or list(buckets) != sorted(buckets):
            raise ConfigurationError(
                f"histogram {name!r} needs ascending non-empty buckets, got {buckets}"
            )
        self.buckets = tuple(float(b) for b in buckets)
        self._states: dict[tuple[str, ...], _HistogramState] = {}
        self._children: dict[tuple[str, ...], _BoundHistogram] = {}
        if not label_names:
            self._states[()] = _HistogramState(len(self.buckets))

    def labels(self, **values: str) -> "_BoundHistogram":
        """The child bound to one label-value combination (cached)."""
        key = _label_key(self, values)
        child = self._children.get(key)
        if child is None:
            self._states.setdefault(key, _HistogramState(len(self.buckets)))
            child = self._children[key] = _BoundHistogram(self, key)
        return child

    def observe(self, value: float) -> None:
        """Record one observation on the unlabeled series."""
        self._require_unlabeled()
        self._observe((), value)

    def _observe(self, key: tuple[str, ...], value: float) -> None:
        state = self._states.setdefault(key, _HistogramState(len(self.buckets)))
        state.sum += value
        state.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                state.bucket_counts[i] += 1
                break

    def samples(self) -> Iterable[tuple[tuple[str, ...], _HistogramState]]:
        return sorted(self._states.items())


class _BoundHistogram:
    __slots__ = ("_metric", "_key")

    def __init__(self, metric: Histogram, key: tuple[str, ...]):
        self._metric = metric
        self._key = key

    def observe(self, value: float) -> None:
        self._metric._observe(self._key, value)


class _NullHandle:
    """Accepts the histogram / child API and does nothing."""

    __slots__ = ()

    def labels(self, **values: str) -> "_NullHandle":
        return self

    def observe(self, value: float) -> None:
        pass


_NULL_HANDLE = _NullHandle()


class MetricsRegistry:
    """The metric + span hub one run's components share.

    Args:
        enabled: When False every returned handle is a shared no-op and
            nothing is recorded — the zero-overhead disabled mode.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._metrics: dict[str, _Metric] = {}
        self.spans: list[Span] = []

    # -- registration ---------------------------------------------------

    def _register(self, cls, name: str, help: str, label_names, **kwargs):
        if not _NAME_RE.match(name):
            raise ConfigurationError(f"bad metric name {name!r}")
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls or existing.label_names != tuple(label_names):
                raise ConfigurationError(
                    f"metric {name!r} already registered as {existing.kind} "
                    f"with labels {existing.label_names}"
                )
            return existing
        metric = cls(name, help, tuple(label_names), **kwargs)
        self._metrics[name] = metric
        return metric

    def _declare(self, cls, name, help, labels, read):
        if not self.enabled:
            return None  # nothing retained: no family, no reader
        metric = self._register(cls, name, help, labels)
        if read is not None:
            metric._readers.append(read)
        return metric

    def counter(
        self,
        name: str,
        help: str,
        labels: Iterable[str] = (),
        read: Callable[[], float | Mapping] | None = None,
    ) -> Counter | None:
        """Declare a counter and attach ``read`` as one of its readers.

        Readers of one counter add per series: S shard engines on one
        registry, or the engine before and after a restart, each report
        their own record and the family is the sum.
        """
        return self._declare(Counter, name, help, labels, read)

    def gauge(
        self,
        name: str,
        help: str,
        labels: Iterable[str] = (),
        read: Callable[[], float | Mapping] | None = None,
    ) -> Gauge | None:
        """Declare a gauge and attach ``read`` as its latest reader.

        Per series the reader attached last replaces the earlier ones —
        the component built last is the one whose state is current.
        """
        return self._declare(Gauge, name, help, labels, read)

    def histogram(
        self,
        name: str,
        help: str,
        labels: Iterable[str] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Register (or fetch) a histogram."""
        if not self.enabled:
            return _NULL_HANDLE
        return self._register(Histogram, name, help, labels, buckets=buckets)

    # -- spans ----------------------------------------------------------

    def record_span(
        self, name: str, start: float, end: float, **labels: str
    ) -> None:
        """Record one sim-time span; the caller reads both endpoints
        from its simulator's clock."""
        if self.enabled:
            self.spans.append(
                Span(
                    name=name,
                    labels={k: str(v) for k, v in labels.items()},
                    start=start,
                    end=end,
                )
            )

    # -- introspection ---------------------------------------------------

    def names(self) -> list[str]:
        """Registered metric names, sorted."""
        return sorted(self._metrics)

    def metrics(self) -> Iterable[_Metric]:
        """Registered metrics in name order (deterministic)."""
        return [self._metrics[name] for name in self.names()]


#: The shared disabled registry every un-instrumented component uses.
NULL_REGISTRY = MetricsRegistry(enabled=False)
