"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig7-saturated --seed 2 \\
        --seconds 28 --trace 0

Each simulation runs in a fresh child process (``perfbench.child``), one
at a time.  With ``--trace 0`` the parent runs the workload once on each
of its seeds (:func:`perfbench.workloads.subseeds`), then keeps cycling
through them while another run fits in ``--seconds``.  With
``--trace 1`` it alternates untraced and traced runs of the first seed.
Either way one checking run with the invariant suite attached ends the
invocation.  The output check requires every run to finish, every run of
one seed to repeat the same outcome and counters (traced and checking
runs included), the captured counters to agree with the ``RunResult``
and the invariant suite to find nothing.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``:
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  The line before it is the full record (host fingerprint,
seed, sample counts, per-run values), which is also written under
``.perfbench/`` with the traced run's per-function spans.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

#: the whole invocation must end within this many seconds.
DEADLINE_S = 170.0
#: time kept back for the checking run that ends every invocation.
CHECK_RESERVE_S = 60.0
OUT_DIR = ".perfbench"

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("wall_s", "s"),
    ("sim_req_per_host_s", "req/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_throughput_rps", "req/s"),
    ("sim_latency_mean_ms", "ms"),
    ("sim_latency_p99_ms", "ms"),
    ("sim_completed_frac", "fraction"),
)

#: layers whose self time is reported, as ``<layer>.self_s``.
SELF_LAYERS = (
    "sim", "net", "crypto", "common", "protocols", "core", "clients", "faults",
)

#: deterministic per-layer counts, read from the untraced run.
COUNTS: Tuple[Tuple[str, str], ...] = (
    ("sim.events", "count"),
    ("sim.events_per_req", "events/req"),
    ("sim.cores.jobs_per_req", "jobs/req"),
    ("sim.cores.max_util", "fraction"),
    ("net.deliveries_per_req", "msgs/req"),
    ("net.bytes_per_req", "B/req"),
    ("net.drops", "count"),
    ("common.batching.envelopes", "count"),
    ("common.batching.certs_per_envelope", "certs/env"),
    ("pbft.master_items_per_batch", "items/batch"),
    ("pbft.view_changes", "count"),
    ("core.executed", "count"),
    ("core.invalid_requests", "count"),
    ("core.nics_closed", "count"),
    ("core.instance_changes", "count"),
    ("clients.sent", "count"),
    ("clients.completed", "count"),
    ("faults.flood_msgs", "count"),
)

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    COUNTS
    + tuple(("%s.self_s" % layer, "s") for layer in SELF_LAYERS)
    + (
        ("experiments.build_s", "s"),
        ("verify.violations", "count"),
        ("verify.events_seen", "count"),
        ("trace.overhead_frac", "fraction"),
        ("trace.wall_s", "s"),
        ("trace.unattributed_s", "s"),
    )
)


class Child:
    """One finished child process: its record, or why it failed."""

    def __init__(self, mode: str, seed: int, record: Optional[dict],
                 spawned: float, error: str = ""):
        self.mode = mode
        self.seed = seed
        self.record = record
        self.spawned = spawned
        self.error = error

    @property
    def setup_s(self) -> float:
        return self.record["first_event"] - self.spawned


def spawn(root: str, workload: str, seed: int, mode: str, timeout: float,
          spans: str = "") -> Child:
    """Run one simulation in a fresh interpreter and wait for it."""
    cmd = [sys.executable, "-m", "perfbench.child", "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if spans:
        cmd += ["--spans", spans]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return Child(mode, seed, None, spawned,
                     "timed out after %.0f s" % timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return Child(mode, seed, None, spawned, "exit %d: %s"
                     % (proc.returncode, " | ".join(tail)))
    try:
        return Child(mode, seed, json.loads(lines[-1]), spawned)
    except ValueError:
        return Child(mode, seed, None, spawned, "unparseable output")


def check(children: List[Child]) -> List[str]:
    """The output check; returns one problem string per failed run.

    Runs of one seed are compared with the first finished run of that
    seed.  Failures are recorded on the children (``error``) so each
    failed run is counted once.
    """
    done = [c for c in children if c.record is not None]
    if not done:
        return [c.error for c in children] or ["no run finished"]
    reference: Dict[int, dict] = {}
    for child in done:
        reference.setdefault(child.seed, child.record)
    for child in done:
        rec = child.record
        ref = reference[child.seed]
        out, counts = rec["outcome"], rec["counters"]
        problems = []
        if out != ref["outcome"]:
            problems.append("outcome differs from the first run of its seed")
        if counts != ref["counters"]:
            problems.append("counters differ from the first run of its seed")
        if counts["clients.completed"] != out["completed"]:
            problems.append("clients' completed %d != RunResult.completed %d"
                            % (counts["clients.completed"], out["completed"]))
        if counts["sim.events"] != out["events"]:
            problems.append("dispatched events != RunResult.events")
        if not 0 < out["completed"] <= counts["clients.sent"]:
            problems.append("completed requests outside (0, sent]")
        if out["executed_rate"] <= 0:
            problems.append("nothing executed")
        if rec.get("violations"):
            problems.append("%d invariant violations, first: %s" % (
                len(rec["violations"]), rec["violations"][0]["message"]))
        if problems:
            child.error = "; ".join(problems)
    return ["%s run: %s" % (c.mode, c.error) for c in children if c.error]


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(children: List[Child]) -> Dict[str, float]:
    """Host metrics: medians over untraced runs; simulated: over seeds."""
    plain = [c for c in children if c.mode == "plain" and c.record is not None]
    if not plain:
        return {name: 0.0 for name, _ in END_TO_END}
    runs: Dict[int, Tuple[dict, dict]] = {}
    for child in plain:
        runs.setdefault(child.seed, (child.record["outcome"],
                                     child.record["counters"]))

    def over_seeds(field: str, scale: float = 1.0) -> float:
        return _median([out[field] * scale for out, _ in runs.values()])

    # A seed with a run that failed the output check completed none of
    # its requests.
    failed = {c.seed for c in children if c.error}
    completed_frac = statistics.mean(
        0.0 if seed in failed else out["completed"] / counts["clients.sent"]
        for seed, (out, counts) in runs.items()
    )
    return {
        "wall_s": _median([c.record["wall_s"] for c in plain]),
        "sim_req_per_host_s": _median(
            [c.record["outcome"]["completed"] / c.record["wall_s"] for c in plain]
        ),
        "setup_s": _median([c.setup_s for c in plain]),
        "peak_rss_mb": _median([c.record["peak_rss_mb"] for c in plain]),
        "sim_throughput_rps": over_seeds("executed_rate"),
        "sim_latency_mean_ms": over_seeds("mean_latency", 1e3),
        "sim_latency_p99_ms": over_seeds("p99_latency", 1e3),
        "sim_completed_frac": completed_frac,
    }


def per_layer(children: List[Child]) -> Dict[str, float]:
    """Counts from an untraced run, self times from the median traced run."""
    plain = [c.record for c in children if c.mode == "plain" and c.record]
    traced = [c.record for c in children if c.mode == "traced" and c.record]
    checked = [c.record for c in children if c.mode == "check" and c.record]
    metrics: Dict[str, float] = {}
    counts = plain[0]["counters"] if plain else {}
    for name, _ in COUNTS:
        metrics[name] = counts.get(name, 0)
    # One traced run supplies every self time, so that they add up with
    # the unattributed remainder to that run's wall time exactly.
    traced.sort(key=lambda rec: rec["wall_s"])
    median_run = traced[(len(traced) - 1) // 2] if traced else None
    layers = median_run["layers"] if median_run else {}
    for layer in SELF_LAYERS:
        metrics["%s.self_s" % layer] = layers.get(layer, 0.0)
    metrics["experiments.build_s"] = _median([r["build_s"] for r in plain])
    metrics["verify.violations"] = (
        len(checked[0]["violations"]) if checked else 0
    )
    metrics["verify.events_seen"] = checked[0]["events_seen"] if checked else 0
    plain_wall = _median([r["wall_s"] for r in plain])
    traced_wall = _median([r["wall_s"] for r in traced])
    metrics["trace.overhead_frac"] = (
        traced_wall / plain_wall - 1.0 if plain_wall and traced else 0.0
    )
    if median_run:
        metrics["trace.wall_s"] = median_run["wall_s"]
        metrics["trace.unattributed_s"] = median_run["wall_s"] - sum(
            layers.get(layer, 0.0) for layer in SELF_LAYERS
        )
    else:
        metrics["trace.wall_s"] = metrics["trace.unattributed_s"] = 0.0
    return metrics


def measure(root: str, workload: str, seed: int, seconds: float, trace: int,
            spans: str, started: float) -> List[Child]:
    """Spawn the runs of one invocation, one at a time; see the docstring.

    The first pass over the seeds always runs; after it, another run (or
    untraced/traced pair) starts only if the last one would still end
    within ``seconds`` of ``started``.
    """
    from perfbench.workloads import subseeds

    seeds = [seed] if trace else subseeds(workload, seed)
    children: List[Child] = []

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - started)

    last = 0.0
    for i in itertools.count():
        elapsed = time.monotonic() - started
        if i >= len(seeds) and elapsed + last > seconds:
            break
        if remaining() < CHECK_RESERVE_S:
            break
        begun = time.monotonic()
        batch = [spawn(root, workload, seeds[i % len(seeds)], "plain",
                       remaining())]
        if trace:
            batch.append(spawn(root, workload, seed, "traced", remaining(),
                               spans))
        last = time.monotonic() - begun
        children += batch
        if any(c.record is None for c in batch):
            break  # a crashing program will not get better with repeats
    children.append(spawn(root, workload, seeds[0], "check",
                          max(remaining(), 1.0)))
    return children


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload; print its metrics as JSON."
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=28.0,
                        help="how long to repeat the measured runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the root of a checkout "
              "(no src/repro here)", file=sys.stderr)
        return 2
    sys.path.insert(0, root)
    sys.path.insert(0, os.path.join(root, "src"))
    from repro.experiments.benchutil import host_fingerprint

    from perfbench.workloads import WORKLOADS, subseeds

    if args.workload not in WORKLOADS:
        print("perfbench: unknown workload %r (expected one of %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2

    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, "%s-seed%d" % (args.workload, args.seed))
    spans = stem + "-spans.json" if args.trace else ""

    children = measure(root, args.workload, args.seed, args.seconds,
                       args.trace, spans, started)
    problems = check(children)
    metrics = per_layer(children) if args.trace else end_to_end(children)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    plain = [c.record for c in children if c.mode == "plain" and c.record]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seeds": [args.seed] if args.trace else subseeds(args.workload, args.seed),
        "trace": args.trace,
        "host": host_fingerprint(),
        "samples": {mode: sum(1 for c in children if c.mode == mode)
                    for mode in ("plain", "traced", "check")},
        "problems": problems,
        "busiest_core": plain[0]["counters"]["sim.cores.busiest"] if plain else None,
        "runs": [
            {"mode": c.mode, "seed": c.seed, "error": c.error,
             "setup_s": c.setup_s if c.record else None,
             **({k: c.record[k] for k in ("wall_s", "build_s", "import_s",
                                          "peak_rss_mb")} if c.record else {}),
             **({"layers": c.record["layers"], "shim_s": c.record["shim_s"]}
                if c.record and c.mode == "traced" else {})}
            for c in children
        ],
        "metrics": metrics,
    }
    with open(stem + "-trace%d.json" % args.trace, "w", encoding="utf-8") as out:
        json.dump(record, out, indent=1)
    for name, value in metrics.items():
        print("%-36s %16.6g %s" % (name, value, units[name]))
    for problem in problems:
        print("CHECK FAILED: %s" % problem)
    print(json.dumps(record))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(children),
        "failed": sum(1 for c in children if c.error),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
