"""One simulation of a benchmark workload, in one of three modes.

* ``plain`` — the untraced run the end-to-end metrics come from;
* ``traced`` — the same run under :mod:`perfbench.layers` timing shims;
* ``check`` — the same run with an ``InvariantSuite`` attached to the
  captured deployment (the attack's faulty nodes excluded), drained
  before the suite's end-of-run checks.

``first_event`` in the returned record is a ``time.monotonic()``
reading, so a parent process can subtract the time it spawned the run
to get the set-up time.
"""

from __future__ import annotations

import json
import resource
import time

from repro.experiments import run

from .probe import capture, counters, outcome

__all__ = ["MODES", "simulate"]

MODES = ("plain", "traced", "check")

#: simulated seconds a checking run continues after the measured run, with
#: no new requests, before the invariant suite's end-of-run checks.
DRAIN_S = 0.25


def simulate(scenario, mode: str, spans_path: str = "") -> dict:
    """Run ``scenario`` once in ``mode`` and describe what happened."""
    record = {"seed": scenario.seed, "mode": mode}
    if mode == "traced":
        from .layers import LayerClock, instrument

        clock = LayerClock()
        record["shim_s"] = clock.calibrate()
        # instrument() first: it times the simulator loop it finds, which
        # must be the program's own rather than capture()'s wrapper.
        with instrument(clock), capture() as cap:
            result = run(scenario)
        done = time.monotonic()
        layers = clock.layers()
        record["layers"] = layers
        record["attributed_s"] = sum(layers.values())
        if spans_path:
            with open(spans_path, "w", encoding="utf-8") as out:
                json.dump(
                    {
                        "seed": scenario.seed,
                        "functions": clock.functions(),
                        "sampled_spans": clock.raw_spans(),
                    },
                    out,
                )
    elif mode == "check":
        from repro.verify import InvariantSuite

        suite = InvariantSuite()

        def exclude_faulty(handle) -> None:
            faulty = getattr(handle, "faulty_nodes", None) or ()
            suite.faulty = frozenset(node.name for node in faulty)

        with capture() as cap:
            cap.on_deployment = suite.attach
            cap.on_attack = exclude_faulty
            result = run(scenario)
        done = time.monotonic()
        record["counters"] = counters(cap, result)
        # The load stops at the end of the run with requests still in
        # flight; let them settle before the suite's end-of-run checks
        # (executed sets agree across correct nodes and cover what the
        # master ordered), as verification episodes do.
        sim = cap.deployment.sim
        sim.run(until=sim.now + DRAIN_S)
        violations = suite.finalize()
        record["violations"] = [v.to_dict() for v in violations]
        record["events_seen"] = suite.events_seen
    elif mode == "plain":
        with capture() as cap:
            result = run(scenario)
        done = time.monotonic()
    else:
        raise ValueError("unknown mode %r" % mode)
    record.setdefault("counters", counters(cap, result))
    record.update(
        outcome=outcome(result),
        first_event=cap.first_event,
        wall_s=done - cap.first_event,
        build_s=cap.build_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    return record
