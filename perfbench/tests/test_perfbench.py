"""Tests for the benchmark's own code, on a tiny scenario.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.clients import Workload
from repro.experiments import Scenario, runner
from repro.experiments.scale import QUICK
from repro.sim.engine import Simulator
from repro.sim.resources import Core

from perfbench import run as bench
from perfbench.layers import LayerClock, instrument
from perfbench.simulate import simulate
from perfbench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def tiny(attack=None, seed=0) -> Scenario:
    return Scenario(
        protocol="rbft",
        f=1,
        seed=seed,
        scale=QUICK,
        attack=attack,
        workload=Workload("static", rate=3000.0, clients=4, population=False),
        duration=0.1,
        warmup=0.03,
    )


def child(mode, record, spawned=0.0):
    return bench.Child(mode, record["seed"], record, spawned)


@pytest.fixture(scope="module")
def runs():
    """One plain, traced and checking run of the tiny scenario each."""
    return {mode: simulate(tiny(), mode) for mode in ("plain", "traced", "check")}


def test_benchmark_json_names_every_emitted_metric_with_its_unit():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(
        bench.END_TO_END
    )
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(
        bench.PER_LAYER
    )
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_every_metric_is_emitted_with_its_unit(runs):
    children = [child("plain", runs["plain"], spawned=runs["plain"]["first_event"] - 0.2),
                child("traced", runs["traced"]), child("check", runs["check"])]
    assert bench.check(children) == []
    e2e = bench.end_to_end(children)
    assert list(e2e) == [name for name, _ in bench.END_TO_END]
    assert e2e["setup_s"] == pytest.approx(0.2)
    assert e2e["sim_completed_frac"] > 0
    layers = bench.per_layer(children)
    assert list(layers) == [name for name, _ in bench.PER_LAYER]
    assert all(isinstance(v, (int, float)) for v in layers.values())


def test_deterministic_counts_repeat_exactly(runs):
    again = simulate(tiny(), "plain")
    assert again["outcome"] == runs["plain"]["outcome"]
    assert again["counters"] == runs["plain"]["counters"]


def test_tracing_leaves_the_outcome_identical(runs):
    traced = runs["traced"]
    assert traced["outcome"] == runs["plain"]["outcome"]
    assert traced["counters"] == runs["plain"]["counters"]
    # Self times never exceed the traced wall; the rest is reported.
    assert 0 < traced["attributed_s"] <= traced["wall_s"]
    assert traced["layers"]["sim"] > 0 and traced["layers"]["core"] > 0


def test_checking_run_matches_and_finds_no_violation(runs):
    checked = runs["check"]
    assert checked["violations"] == []
    assert checked["events_seen"] > 0
    assert checked["outcome"] == runs["plain"]["outcome"]


def test_captured_counters_match_the_run_result(runs):
    out, counts = runs["plain"]["outcome"], runs["plain"]["counters"]
    assert counts["clients.completed"] == out["completed"]
    assert counts["sim.events"] == out["events"]
    assert counts["core.instance_changes"] == out["instance_changes"]
    assert counts["clients.sent"] >= out["completed"] > 0
    assert counts["core.executed"] >= out["completed"]


def test_attack_counters_and_faulty_nodes_are_captured():
    record = simulate(tiny(attack="rbft-worst1"), "plain")
    counts = record["counters"]
    assert counts["faulty_nodes"] == ["node3"]
    assert counts["faults.flood_msgs"] > 0
    assert counts["core.invalid_requests"] > 0


def test_instrument_and_capture_restore_the_program():
    originals = (Simulator.call_at, Simulator.run, Core.submit,
                 runner.make_deployment, dict(runner.ATTACK_INSTALLERS))
    simulate(tiny(), "traced")
    simulate(tiny(attack="rbft-worst1"), "check")
    assert (Simulator.call_at, Simulator.run, Core.submit,
            runner.make_deployment, dict(runner.ATTACK_INSTALLERS)) == originals


def test_self_time_excludes_nested_spans():
    clock = LayerClock()

    def inner():
        return 7

    def outer():
        return clock.call(inner.__code__, inner, ()) + 1

    with instrument(clock):
        assert clock.call(outer.__code__, outer, ()) == 8
    count, total, self_s = clock.stats[outer.__code__]
    inner_total = clock.stats[inner.__code__][1]
    assert count == 1
    assert self_s == pytest.approx(total - inner_total)
    assert [s["parent"] for s in clock.raw_spans()] == [1, 0]


def test_raw_span_sample_stays_bounded_and_strided():
    clock = LayerClock(sample_cap=8)

    def noop():
        pass

    for _ in range(100):
        clock.call(noop.__code__, noop, ())
    ids = [s["id"] for s in clock.raw_spans()]
    assert 0 < len(ids) <= 8
    stride = ids[1] - ids[0]
    assert all(b - a == stride for a, b in zip(ids, ids[1:]))


def test_check_counts_a_diverging_run_as_failed(runs):
    bad = json.loads(json.dumps(runs["plain"]))
    bad["outcome"]["completed"] += 1
    children = [child("plain", runs["plain"]), child("plain", bad)]
    problems = bench.check(children)
    assert len(problems) == 1 and "outcome differs" in problems[0]
    # The seed with the diverging run counts as completing nothing.
    assert bench.end_to_end(children)["sim_completed_frac"] == 0.0


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", "fig7-saturated", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
