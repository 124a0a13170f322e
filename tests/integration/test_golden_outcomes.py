"""Golden outcomes: host-side optimisations must not change one event.

Three tiny seeded runs through the public ``Scenario``/``run()`` path —
the exact tier (f = 1), the same load under worst-attack 1, and the
batched tier (f = 4) — pinned to the exact event count, completions,
executed rate, latencies and instance changes they produced before the
hot-path pass.  A change that reorders the ``(time, seq)`` schedule,
draws the RNG in another order or alters any cost shows up here as a
mismatch; re-pin only for a change that is meant to alter behaviour.
"""

import pytest

from repro.clients import Workload
from repro.experiments import Scenario, run
from repro.experiments.scale import QUICK
from repro.protocols import registry as protocol_registry


def _scenario(f, rate, attack=None):
    return Scenario(
        protocol="rbft",
        f=f,
        seed=7,
        scale=QUICK,
        attack=attack,
        workload=Workload("static", rate=rate, clients=8, population=False),
        duration=0.05,
        warmup=0.01,
    )


GOLDEN = {
    "exact-f1": (
        _scenario(1, 20000.0),
        dict(
            events=60137,
            completed=1003,
            executed_rate=21050.0,
            mean_latency=0.0016200801198285298,
            p99_latency=0.001943825445606291,
            instance_changes=0,
        ),
    ),
    "worst1-f1": (
        _scenario(1, 20000.0, attack="rbft-worst1"),
        dict(
            events=59566,
            completed=1000,
            executed_rate=21075.0,
            mean_latency=0.0016576097409343822,
            p99_latency=0.0019812072105650012,
            instance_changes=0,
        ),
    ),
    "batched-f4": (
        _scenario(4, 3000.0),
        dict(
            events=59493,
            completed=110,
            executed_rate=2750.0,
            mean_latency=0.0069000448809999355,
            p99_latency=0.011233864379239839,
            instance_changes=0,
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outcome_is_unchanged(name):
    scenario, expected = GOLDEN[name]
    result = run(scenario)
    assert {key: getattr(result, key) for key in expected} == expected


def test_pinned_scenarios_cover_the_exact_and_batched_tiers():
    rbft = protocol_registry.get("rbft")
    assert rbft.config_factory(1, QUICK).pacing_tier == "exact"
    assert rbft.config_factory(4, QUICK).pacing_tier == "batched"
