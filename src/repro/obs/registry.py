"""Thread-safe metrics registry with Prometheus text exposition.

One :class:`MetricsRegistry` is instantiated per
:class:`~repro.core.distributed_map.DistributedMap` and aggregates every
counter the stack keeps.  Two registration styles coexist:

* **Instruments** — :meth:`~MetricsRegistry.counter` and
  :meth:`~MetricsRegistry.histogram` return objects with ``inc``/``observe``
  methods guarded by the registry lock, safe from any thread (the frame
  tracer observes from the dispatch thread while the scrape endpoint renders
  from the loop).
* **Callbacks** — :meth:`~MetricsRegistry.register_callback` exports a live
  attribute of an existing object (``LenderStats.values_read``,
  ``ShmRing.fallbacks``, ...) without refactoring its owner: the callable
  is invoked at scrape/snapshot time only, so the hot paths that bump those
  attributes stay lock-free and unchanged.  A gauge is a callback of kind
  ``gauge``.

Exposition is the Prometheus text format (version 0.0.4):
:meth:`~MetricsRegistry.render_prometheus` for the scrape endpoint,
:meth:`~MetricsRegistry.as_dict` for the structured end-of-run snapshot
(``pando --stats-json``).  Families and samples render in sorted order so
the output is deterministic (the golden-file test depends on it).
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..analysis.annotations import any_thread
from ..errors import PandoError

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_SECONDS_BUCKETS",
    "DEFAULT_BYTES_BUCKETS",
]

#: Fixed buckets for latency-shaped histograms: 100 microseconds to 30s.
DEFAULT_SECONDS_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Fixed buckets for payload-size histograms: 256 B to 256 MiB, powers of 4.
DEFAULT_BYTES_BUCKETS = tuple(256 * (4 ** n) for n in range(11))

LabelValues = Tuple[str, ...]


def _validate_name(name: str) -> str:
    if not name or not all(ch.isalnum() or ch in "_:" for ch in name):
        raise PandoError(f"invalid metric name {name!r}")
    return name


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(names: Tuple[str, ...], values: LabelValues) -> str:
    if not names:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label(str(value))}"' for name, value in zip(names, values)
    )
    return "{" + pairs + "}"


class _Instrument:
    """Base for registry-owned metrics: one family, many label sets."""

    kind = "untyped"

    def __init__(
        self, registry: "MetricsRegistry", name: str, help_text: str,
        labelnames: Tuple[str, ...],
    ) -> None:
        self._registry = registry
        self._lock = registry._lock
        self.name = name
        self.help_text = help_text
        self.labelnames = labelnames

    def _key(self, labels: Dict[str, Any]) -> LabelValues:
        if set(labels) != set(self.labelnames):
            raise PandoError(
                f"metric {self.name} expects labels {self.labelnames}, "
                f"got {tuple(labels)}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)


class Counter(_Instrument):
    """Monotonically increasing count (per label set)."""

    kind = "counter"

    def __init__(self, registry, name, help_text, labelnames) -> None:
        super().__init__(registry, name, help_text, labelnames)
        self._values: Dict[LabelValues, float] = {}

    @any_thread
    def inc(self, amount: float = 1, **labels: Any) -> None:
        if amount < 0:
            raise PandoError(f"counter {self.name} cannot decrease")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    @any_thread
    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._values.get(self._key(labels), 0)

    def _samples(self) -> List[Tuple[LabelValues, float]]:
        return sorted(self._values.items())


class Histogram(_Instrument):
    """Fixed-bucket histogram (cumulative buckets, Prometheus semantics)."""

    kind = "histogram"

    def __init__(self, registry, name, help_text, labelnames, buckets) -> None:
        super().__init__(registry, name, help_text, labelnames)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise PandoError(f"histogram {self.name} needs at least one bucket")
        self.buckets = bounds
        # per label set: [per-bucket counts..., +Inf count], sum
        self._counts: Dict[LabelValues, List[int]] = {}
        self._sums: Dict[LabelValues, float] = {}

    @any_thread
    def observe(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                counts = [0] * (len(self.buckets) + 1)
                self._counts[key] = counts
                self._sums[key] = 0.0
            counts[index] += 1
            self._sums[key] += value

    @any_thread
    def count(self, **labels: Any) -> int:
        with self._lock:
            counts = self._counts.get(self._key(labels))
            return sum(counts) if counts else 0

    @any_thread
    def sum(self, **labels: Any) -> float:
        with self._lock:
            return self._sums.get(self._key(labels), 0.0)

    def _series(self) -> List[Tuple[LabelValues, List[int], float]]:
        return [
            (key, list(self._counts[key]), self._sums[key])
            for key in sorted(self._counts)
        ]


class _Callback:
    """One scrape-time callable exporting a live attribute."""

    def __init__(self, fn: Callable[[], float], labels: LabelValues) -> None:
        self.fn = fn
        self.labels = labels


class _CallbackFamily:
    kind = "callback"

    def __init__(self, name: str, help_text: str, labelnames: Tuple[str, ...],
                 sample_kind: str) -> None:
        self.name = name
        self.help_text = help_text
        self.labelnames = labelnames
        self.sample_kind = sample_kind
        self.callbacks: List[_Callback] = []


class MetricsRegistry:
    """All metric families of one master, renderable as Prometheus text."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._families: Dict[str, Any] = {}

    # ------------------------------------------------------------ creation
    def _register(self, family: Any) -> Any:
        with self._lock:
            existing = self._families.get(family.name)
            if existing is not None:
                raise PandoError(f"metric {family.name} is already registered")
            self._families[family.name] = family
        return family

    def counter(self, name: str, help_text: str,
                labelnames: Iterable[str] = ()) -> Counter:
        return self._register(
            Counter(self, _validate_name(name), help_text, tuple(labelnames))
        )

    def histogram(self, name: str, help_text: str,
                  labelnames: Iterable[str] = (),
                  buckets: Iterable[float] = DEFAULT_SECONDS_BUCKETS) -> Histogram:
        return self._register(
            Histogram(self, _validate_name(name), help_text, tuple(labelnames), buckets)
        )

    def register_callback(
        self,
        name: str,
        help_text: str,
        fn: Callable[[], float],
        labels: Optional[Dict[str, Any]] = None,
        kind: str = "counter",
    ) -> None:
        """Export ``fn()`` as one sample of family *name* at scrape time.

        Multiple callbacks may share a family (one per label set) — the
        registration pattern for per-pool and per-gateway counters.  *kind* sets the exposition TYPE (``counter``/``gauge``).
        """
        if kind not in ("counter", "gauge"):
            raise PandoError(f"callback kind must be counter or gauge, not {kind!r}")
        labels = dict(labels or {})
        with self._lock:
            family = self._families.get(_validate_name(name))
            if family is None:
                family = _CallbackFamily(
                    name, help_text, tuple(sorted(labels)), kind
                )
                self._families[name] = family
            elif not isinstance(family, _CallbackFamily):
                raise PandoError(f"metric {name} is already a {family.kind}")
            elif tuple(sorted(labels)) != family.labelnames:
                raise PandoError(
                    f"metric {name} callbacks must share label names "
                    f"{family.labelnames}"
                )
            values = tuple(str(labels[k]) for k in family.labelnames)
            family.callbacks.append(_Callback(fn, values))

    # ---------------------------------------------------------- exposition
    @staticmethod
    def _call(fn: Callable[[], float]) -> float:
        try:
            return float(fn())
        except Exception:
            # A dead object behind a callback must not break the scrape.
            return 0.0

    @any_thread
    def render_prometheus(self) -> str:
        """The Prometheus text exposition (version 0.0.4) of every family."""
        lines: List[str] = []
        with self._lock:
            families = sorted(self._families.items())
        for name, family in families:
            if isinstance(family, _CallbackFamily):
                lines.append(f"# HELP {name} {family.help_text}")
                lines.append(f"# TYPE {name} {family.sample_kind}")
                samples = sorted(
                    (cb.labels, self._call(cb.fn)) for cb in family.callbacks
                )
                for labels, value in samples:
                    rendered = _render_labels(family.labelnames, labels)
                    lines.append(f"{name}{rendered} {_format_value(value)}")
                continue
            lines.append(f"# HELP {name} {family.help_text}")
            lines.append(f"# TYPE {name} {family.kind}")
            if isinstance(family, Histogram):
                with self._lock:
                    series = family._series()
                for labels, counts, total in series:
                    cumulative = 0
                    for bound, count in zip(family.buckets, counts):
                        cumulative += count
                        rendered = _render_labels(
                            family.labelnames + ("le",),
                            labels + (_format_value(bound),),
                        )
                        lines.append(f"{name}_bucket{rendered} {cumulative}")
                    cumulative += counts[-1]
                    rendered = _render_labels(
                        family.labelnames + ("le",), labels + ("+Inf",)
                    )
                    lines.append(f"{name}_bucket{rendered} {cumulative}")
                    plain = _render_labels(family.labelnames, labels)
                    lines.append(f"{name}_sum{plain} {_format_value(total)}")
                    lines.append(f"{name}_count{plain} {cumulative}")
            else:
                with self._lock:
                    samples = family._samples()
                for labels, value in samples:
                    rendered = _render_labels(family.labelnames, labels)
                    lines.append(f"{name}{rendered} {_format_value(value)}")
        return "\n".join(lines) + "\n"

    @any_thread
    def as_dict(self) -> Dict[str, Any]:
        """Structured snapshot of every family (the ``--stats-json`` shape)."""
        out: Dict[str, Any] = {}
        with self._lock:
            families = sorted(self._families.items())
        for name, family in families:
            if isinstance(family, _CallbackFamily):
                out[name] = {
                    "type": family.sample_kind,
                    "samples": [
                        {
                            "labels": dict(zip(family.labelnames, cb.labels)),
                            "value": self._call(cb.fn),
                        }
                        for cb in family.callbacks
                    ],
                }
            elif isinstance(family, Histogram):
                with self._lock:
                    series = family._series()
                out[name] = {
                    "type": "histogram",
                    "buckets": list(family.buckets),
                    "samples": [
                        {
                            "labels": dict(zip(family.labelnames, labels)),
                            "counts": counts,
                            "sum": total,
                            "count": sum(counts),
                        }
                        for labels, counts, total in series
                    ],
                }
            else:
                with self._lock:
                    samples = family._samples()
                out[name] = {
                    "type": family.kind,
                    "samples": [
                        {
                            "labels": dict(zip(family.labelnames, labels)),
                            "value": value,
                        }
                        for labels, value in samples
                    ],
                }
        return out

    @property
    def families(self) -> List[str]:
        """Registered family names, sorted."""
        with self._lock:
            return sorted(self._families)
