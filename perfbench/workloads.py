"""The benchmark's workloads: three paper-shaped RBFT scenarios.

Every workload is one :class:`repro.experiments.Scenario` with 8-byte
requests, a fixed offered rate (no capacity probe) and open-loop
clients.  The seed is the only input the benchmark varies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.clients import Workload
from repro.experiments import Scenario
from repro.experiments.scale import QUICK

__all__ = ["BenchWorkload", "WORKLOADS", "scenario_for", "subseeds"]

#: the saturating static load of Figs 7-8: ~1.25x the ~30.5k req/s an
#: f = 1 deployment sustains with 8-byte requests.
SATURATING_RATE = 38_000.0

#: distance between the seeds of one run (see :func:`subseeds`).
SUBSEED_STRIDE = 1_000_000


@dataclass(frozen=True)
class BenchWorkload:
    """One workload; why each was chosen is in BENCHMARK.json and README.md."""

    name: str
    build: Callable[[int], Scenario]
    #: how many seeds one benchmark run covers (see :func:`subseeds`).
    seeds: int


def _fig7(seed: int, attack=None) -> Scenario:
    return Scenario(
        protocol="rbft",
        f=1,
        seed=seed,
        scale=QUICK,
        attack=attack,
        workload=Workload(
            "static", rate=SATURATING_RATE, clients=12, population=False
        ),
        duration=0.3,
        warmup=0.1,
    )


def _scale_diurnal(seed: int) -> Scenario:
    # 1.5 simulated seconds: long enough for the spurious instance change
    # of the batched tier to show (see README.md); do not shorten.
    return Scenario(
        protocol="rbft",
        f=8,
        seed=seed,
        scale=QUICK,
        workload=Workload("diurnal", rate=1000.0),
        duration=1.5,
    )


WORKLOADS: Dict[str, BenchWorkload] = {
    w.name: w
    for w in (
        BenchWorkload("fig7-saturated", _fig7, seeds=6),
        BenchWorkload(
            "attack-worst1",
            lambda seed: _fig7(seed, attack="rbft-worst1"),
            seeds=6,
        ),
        BenchWorkload("scale-diurnal", _scale_diurnal, seeds=3),
    )
}


def subseeds(name: str, seed: int) -> List[int]:
    """The simulation seeds one benchmark run at ``seed`` covers.

    Latency at saturation varies ~8% from seed to seed (the Poisson
    backlog), so the simulated metrics are medians over several seeds.
    The first is ``seed`` itself, which the traced run also uses.
    """
    return [seed + SUBSEED_STRIDE * i for i in range(WORKLOADS[name].seeds)]


def scenario_for(name: str, seed: int) -> Scenario:
    """The scenario of workload ``name`` at ``seed``."""
    try:
        workload = WORKLOADS[name]
    except KeyError:
        raise ValueError(
            "unknown workload %r (expected one of %s)"
            % (name, ", ".join(WORKLOADS))
        ) from None
    return workload.build(seed)
