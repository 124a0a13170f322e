"""Capture what ``run(scenario)`` builds, and count its work.

``run()`` imports :func:`repro.experiments.runner.make_deployment` and
the entries of ``runner.ATTACK_INSTALLERS`` at call time, so wrapping
them for the length of one run hands the benchmark the
:class:`~repro.experiments.deployments.Deployment` and the attack handle
without any change to the program.  :func:`counters` then reads the
deterministic per-layer work counts from public attributes.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.experiments import runner
from repro.sim.engine import Simulator

__all__ = ["Capture", "capture", "counters", "outcome"]

#: RunResult fields that must repeat exactly across runs of one seed.
OUTCOME_FIELDS = (
    "events",
    "completed",
    "executed_rate",
    "mean_latency",
    "p99_latency",
    "instance_changes",
)


class Capture:
    """What one ``run(scenario)`` built, plus when its set-up ended."""

    def __init__(self) -> None:
        self.deployment = None
        self.handle = None
        #: host seconds spent in make_deployment plus the attack installer.
        self.build_s = 0.0
        #: ``time.monotonic()`` when the simulator loop was first entered.
        self.first_event: Optional[float] = None
        #: called with the deployment right after it is built.
        self.on_deployment = None
        #: called with the attack handle right after it is installed.
        self.on_attack = None


@contextmanager
def capture() -> Iterator[Capture]:
    """Wrap the deployment builder, the attack installers and the loop."""
    cap = Capture()
    build = runner.make_deployment
    installers = dict(runner.ATTACK_INSTALLERS)
    loop = Simulator.run

    def make_deployment(*args, **kwargs):
        start = time.perf_counter()
        deployment = build(*args, **kwargs)
        cap.build_s += time.perf_counter() - start
        cap.deployment = deployment
        if cap.on_deployment is not None:
            cap.on_deployment(deployment)
        return deployment

    def wrap_installer(install):
        def installer(deployment):
            start = time.perf_counter()
            handle = install(deployment)
            cap.build_s += time.perf_counter() - start
            cap.handle = handle
            if cap.on_attack is not None:
                cap.on_attack(handle)
            return handle

        return installer

    def run(sim, until=None):
        if cap.first_event is None:
            cap.first_event = time.monotonic()
        return loop(sim, until)

    runner.make_deployment = make_deployment
    for name, install in installers.items():
        runner.ATTACK_INSTALLERS[name] = wrap_installer(install)
    Simulator.run = run
    try:
        yield cap
    finally:
        runner.make_deployment = build
        runner.ATTACK_INSTALLERS.update(installers)
        Simulator.run = loop


def outcome(result) -> Dict[str, float]:
    """The RunResult fields the output check compares across runs."""
    return {name: getattr(result, name) for name in OUTCOME_FIELDS}


def _faulty(handle) -> List:
    return list(getattr(handle, "faulty_nodes", None) or [])


def _nics(deployment) -> List:
    """Every NIC of the deployment, each once."""
    seen = {}
    for machine in deployment.cluster.machines:
        seen[id(machine.client_nic)] = machine.client_nic
        for nic in machine.peer_nics.values():
            seen[id(nic)] = nic
    for port in deployment.cluster.clients.values():
        seen[id(port.nic)] = port.nic
    return list(seen.values())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def counters(cap: Capture, result) -> Dict[str, object]:
    """Deterministic per-layer work counts of one finished run."""
    deployment = cap.deployment
    cluster = deployment.cluster
    faulty = {id(node) for node in _faulty(cap.handle)}
    nodes = deployment.nodes
    correct = [node for node in nodes if id(node) not in faulty]
    units = deployment.client_units()
    sent = sum(unit.sent for unit in units)
    completed = sum(unit.completed for unit in units)
    per_req = completed or 1

    cores = [core for m in cluster.machines for core in m.cores.cores]
    busiest = max(cores, key=lambda core: core.utilization())
    channels = cluster.network.channels
    ports = list(cluster.clients.values())
    drops = (
        sum(channel.dropped for channel in channels)
        + sum(m.dropped_unrouted for m in cluster.machines)
        + sum(port.dropped_unrouted for port in ports)
    )
    coalescers = {}
    for node in nodes:
        for engine in node.engines:
            coalescer = getattr(engine.transport, "coalescer", None)
            if coalescer is not None:
                coalescers[id(coalescer)] = coalescer
    envelopes = sum(c.flushed_batches for c in coalescers.values())
    certs = sum(c.flushed_items for c in coalescers.values())
    masters = [node.master_engine for node in correct]
    flooders = getattr(cap.handle, "flooders", None) or []
    events = deployment.sim.dispatched
    return {
        "sim.events": events,
        "sim.events_per_req": _ratio(events, per_req),
        "sim.cores.jobs_per_req": _ratio(sum(c.jobs for c in cores), per_req),
        "sim.cores.max_util": busiest.utilization(),
        "sim.cores.busiest": busiest.name,
        "net.deliveries_per_req": _ratio(
            sum(channel.delivered for channel in channels), per_req
        ),
        "net.bytes_per_req": _ratio(
            sum(nic.bytes_tx for nic in _nics(deployment)), per_req
        ),
        "net.drops": drops,
        "common.batching.envelopes": envelopes,
        "common.batching.certs_per_envelope": _ratio(certs, envelopes),
        "pbft.master_items_per_batch": _ratio(
            sum(e.ordered_items for e in masters),
            sum(e.ordered_batches for e in masters),
        ),
        "pbft.view_changes": sum(
            engine.view_changes for node in correct for engine in node.engines
        ),
        "core.executed": max(node.executed_count for node in correct),
        "core.invalid_requests": sum(node.invalid_requests for node in nodes),
        "core.nics_closed": sum(node.nics_closed for node in nodes),
        "core.instance_changes": result.instance_changes,
        "clients.sent": sent,
        "clients.completed": completed,
        "faults.flood_msgs": sum(flooder.sent for flooder in flooders),
        "faulty_nodes": [node.name for node in _faulty(cap.handle)],
    }
