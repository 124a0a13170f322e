"""Outside-in host-time attribution for the traced run.

The program is not edited: :func:`instrument` patches, for the length of
one run, the public calls through which work crosses from one layer of
``repro`` into another, and times every call under the layer (the
``repro.<layer>`` package) of the module that defines the callable.

* The kernel's scheduling calls (``Simulator.call_at``, ``call_soon``,
  ``call_anon``; ``Core.submit``) and ``Simulator.process`` wrap the
  callable or generator they are given, so each dispatched callback and
  each process step is a span.
* The ``Machine``/``ClientPort`` ``handler`` setters wrap the message
  handler that channel deliveries call.
* Cross-layer entry points (:data:`ENTRY_POINTS`) are spans nested in
  whichever callback called them.

Handlers bind at wiring time, so :func:`instrument` must be entered
before the deployment is built.  A span's self time is its duration
minus the time of the spans nested in it and minus the calibrated cost
of the shim around each of them (:meth:`LayerClock.calibrate`), which is
left unattributed; ``Simulator.run`` is itself a span, so its self time
is the loop's own cost.  Spans are aggregated in
memory per (layer, function) as count, total and self seconds, and a
bounded, evenly strided sample of raw spans keeps parent ids.  The
wrappers neither schedule nor draw randomness, so the simulated outcome
is identical to an untraced run's.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

from repro.clients.openloop import OpenLoopClient
from repro.clients.population import ClientPopulation
from repro.common.batching import Batcher
from repro.common.cluster import ClientPort, Machine
from repro.core.monitoring import InstanceMonitor
from repro.crypto.costmodel import CryptoCostModel
from repro.net.network import Channel, Network
from repro.protocols.pbft.engine import OrderingInstance
from repro.sim.engine import Simulator
from repro.sim.resources import Core

__all__ = ["ENTRY_POINTS", "LayerClock", "instrument", "layer_of"]

#: (class, method names) timed as nested spans where one layer calls
#: into another.
ENTRY_POINTS: Tuple[Tuple[type, Tuple[str, ...]], ...] = (
    (Channel, ("send",)),
    (Network, ("broadcast", "multicast")),
    (Machine, ("broadcast_to_nodes", "send_to_node", "send_to_client")),
    (ClientPort, ("broadcast", "send_to_node")),
    (Batcher, ("add",)),
    (OrderingInstance, ("submit", "receive", "dispatch_batch")),
    (
        InstanceMonitor,
        (
            "count_ordered",
            "note_progress",
            "record_latency",
            "check_request_latency",
            "tick",
            "reset_after_change",
            "observes_breach",
        ),
    ),
    (
        CryptoCostModel,
        (
            "mac_gen",
            "mac_verify",
            "authenticator_gen",
            "authenticator_verify",
            "sig_gen",
            "sig_verify",
            "digest",
        ),
    ),
    (OpenLoopClient, ("send_request",)),
    (ClientPopulation, ("send_request",)),
)

_PACKAGE = os.sep + "repro" + os.sep


def layer_of(code) -> str:
    """The ``repro`` package that defines ``code``, or a coarse bucket."""
    filename = getattr(code, "co_filename", "")
    at = filename.rfind(_PACKAGE)
    if at < 0:
        return "bench" if "perfbench" in filename else "other"
    rest = filename[at + len(_PACKAGE):]
    head, sep, _ = rest.partition(os.sep)
    return head if sep else "repro"


def _name(key) -> str:
    """The qualified name behind an aggregation key."""
    return (
        getattr(key, "co_qualname", None)  # Python >= 3.11
        or getattr(key, "co_name", None)
        or getattr(key, "__qualname__", repr(key))
    )


def _code_of(fn):
    """A stable aggregation key for a callable: its code object."""
    func = getattr(fn, "__func__", fn)
    code = getattr(func, "__code__", None)
    return code if code is not None else type(fn)


class LayerClock:
    """Span timer: per-function aggregates plus a strided raw sample."""

    def __init__(self, sample_cap: int = 4096):
        #: code object (or type) -> [count, total_s, self_s]
        self.stats: Dict[object, List[float]] = {}
        self.samples: List[Tuple[int, int, object, float, float]] = []
        self._stride = 1
        self._cap = sample_cap
        self._child = 0.0
        self._current = 0
        self._next_id = 0
        #: host seconds a span's bookkeeping adds to its caller, outside
        #: the span's own window (see :meth:`calibrate`).
        self.shim_s = 0.0

    def call(self, key, fn, args, kwargs=None, clock=time.perf_counter):
        """Run ``fn(*args, **kwargs)`` as one span keyed by ``key``."""
        saved = self._child
        self._child = 0.0
        parent = self._current
        self._next_id = span = self._next_id + 1
        self._current = span
        start = clock()
        try:
            if kwargs:
                return fn(*args, **kwargs)
            return fn(*args)
        finally:
            end = clock()
            spent = end - start
            stat = self.stats.get(key)
            if stat is None:
                stat = self.stats[key] = [0, 0.0, 0.0]
            stat[0] += 1
            stat[1] += spent
            stat[2] += spent - self._child
            # The caller is charged the span plus the bookkeeping around
            # it, so the shim's cost stays out of the caller's self time
            # and shows as unattributed time instead.
            self._child = saved + spent + self.shim_s
            self._current = parent
            if span % self._stride == 0:
                self._sample(span, parent, key, start, end)

    def _sample(self, span, parent, key, start, end) -> None:
        samples = self.samples
        if len(samples) >= self._cap:
            # Keep the sample evenly strided over the whole run.
            self._stride *= 2
            samples[:] = [s for s in samples if s[0] % self._stride == 0]
            if span % self._stride:
                return
        samples.append((span, parent, key, start, end))

    def calibrate(self, rounds: int = 200_000, clock=time.perf_counter) -> float:
        """Measure :attr:`shim_s`: a span's cost outside its own window.

        Times ``rounds`` spans around a no-op against ``rounds`` bare
        no-op calls; what the spans' windows do not cover is bookkeeping
        that would otherwise land in the caller's self time.
        """

        def noop():
            pass

        key = noop.__code__
        self.shim_s = 0.0
        call = self.call
        start = clock()
        for _ in range(rounds):
            call(key, noop, ())
        spanned = clock() - start
        start = clock()
        for _ in range(rounds):
            noop()
        bare = clock() - start
        inside = self.stats.pop(key)[1]
        self.samples.clear()
        self._stride, self._current, self._next_id = 1, 0, 0
        self.shim_s = max(0.0, (spanned - bare - inside) / rounds)
        return self.shim_s

    def timed_generator(self, gen, key):
        """Proxy ``gen`` so that each resumption is one span."""
        call = self.call
        value = None
        error = None
        while True:
            try:
                if error is None:
                    target = call(key, gen.send, (value,))
                else:
                    target = call(key, gen.throw, (error,))
            except StopIteration as stop:
                return stop.value
            error = None
            try:
                value = yield target
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into the process
                error = exc
                value = None

    # ------------------------------------------------------------ results
    def functions(self) -> List[dict]:
        """Per-function aggregates, largest self time first."""
        rows = []
        for key, (count, total, self_s) in self.stats.items():
            rows.append({
                "layer": layer_of(key),
                "function": _name(key),
                "count": count,
                "total_s": total,
                "self_s": self_s,
            })
        rows.sort(key=lambda row: -row["self_s"])
        return rows

    def layers(self) -> Dict[str, float]:
        """Self seconds per layer."""
        totals: Dict[str, float] = {}
        for row in self.functions():
            totals[row["layer"]] = totals.get(row["layer"], 0.0) + row["self_s"]
        return totals

    def raw_spans(self) -> List[dict]:
        return [
            {
                "id": span,
                "parent": parent,
                "layer": layer_of(key),
                "function": _name(key),
                "start": start,
                "end": end,
            }
            for span, parent, key, start, end in self.samples
        ]


@contextmanager
def instrument(clock: LayerClock) -> Iterator[LayerClock]:
    """Install the timing shims for one run; restore everything after."""
    saved = []

    def patch(cls, name, value):
        saved.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, value)

    call = clock.call
    code_of = _code_of

    call_at = Simulator.call_at
    call_soon = Simulator.call_soon
    call_anon = Simulator.call_anon
    process = Simulator.process
    submit = Core.submit
    loop = Simulator.run
    loop_key = loop.__code__

    patch(Simulator, "call_at", lambda sim, time, fn, *args: call_at(
        sim, time, call, code_of(fn), fn, args
    ))
    patch(Simulator, "call_soon", lambda sim, fn, *args: call_soon(
        sim, call, code_of(fn), fn, args
    ))
    patch(Simulator, "call_anon", lambda sim, time, fn, args: call_anon(
        sim, time, call, (code_of(fn), fn, args)
    ))
    patch(Simulator, "process", lambda sim, gen, name="": process(
        sim, clock.timed_generator(gen, gen.gi_code), name
        or getattr(gen, "__name__", "process")
    ))
    patch(Simulator, "run", lambda sim, until=None: call(
        loop_key, loop, (sim, until)
    ))

    def timed_submit(core, cost, fn=None, *args):
        if fn is None:
            return submit(core, cost)
        return submit(core, cost, call, code_of(fn), fn, args)

    patch(Core, "submit", timed_submit)

    def timed_handler(fn):
        key = code_of(fn)

        def handler(msg):
            call(key, fn, (msg,))

        return handler

    for cls in (Machine, ClientPort):
        prop = cls.__dict__["handler"]
        setter = prop.fset
        patch(cls, "handler", prop.setter(
            lambda self, fn, setter=setter: setter(
                self, None if fn is None else timed_handler(fn)
            )
        ))

    def timed_method(func):
        key = func.__code__

        def method(*args, **kwargs):
            return call(key, func, args, kwargs)

        return method

    for cls, names in ENTRY_POINTS:
        for name in names:
            attr = cls.__dict__[name]
            if isinstance(attr, staticmethod):
                patch(cls, name, staticmethod(timed_method(attr.__func__)))
            else:
                patch(cls, name, timed_method(attr))
    try:
        yield clock
    finally:
        for cls, name, value in reversed(saved):
            setattr(cls, name, value)
