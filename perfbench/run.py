"""Benchmark of ghcrypt's protocols and key-owner calls.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload circuit-deep --seed 1 --seconds 60 --trace 0

Workloads: circuit-deep and cyclic-wide (see workloads.py).  The
program is imported from ``src/`` of the checkout; nothing is installed.

A run first generates the key sets, the same ones whatever the seed
(five at full size; ``setup_s`` is the median time of one, and the runs
use them in turn).  It makes its other inputs from ``--seed``, then runs
the workload in a closed loop for ``--seconds`` seconds (at least three
runs) and checks every output.  End-to-end times are the CPU time of the
benchmark's thread (see ``workloads.clock``); the loop's length, the
traced runs and their spans use the wall clock.

The speed of a shared machine drifts by a third and more over tens of
seconds, in CPU time too, and a run of a minute can sit in one such phase.
So the run also times the workload's fixed reference tasks (reference.py,
no ghcrypt code) before each key set and after every ``CALIBRATE_EVERY_S``
of workload time, and reports every end-to-end time in *reference
seconds*: the CPU time of each run (and of each key set) multiplied by the
tasks' nominal time over the mean of the two reference timings just
before and after it, and only then reduced to medians.  Scaling each run
by the speed of its own moment, not the run's medians by each other, keeps
a mix of fast and slow phases from moving a wide distribution (runs of
different inputs) and a narrow one (the reference) by different amounts.
On the machine the nominal times come from, when no other tenant
contends, reference and CPU seconds are equal; a change to the program
moves the reported time by the share it moves the CPU time.  The details
line holds the median reference time and the median factor.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics: each run is executed twice with the same inputs, once
plain and once with the tracer's wrappers installed (alternating which goes
first), so the tracing overhead is measured on paired runs.  The trace run
also writes its root spans to ``.perfbench/trace-<workload>-<seed>.json``.

The second-to-last line of output holds details (sample counts, the
percentile each ``.tail`` is, error rate and the digests of the first runs'
wire messages and per-layer counts); the last line is the result object.
``--size tiny`` shrinks every workload for the smoke test.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from reference import TASKS as REFERENCE_TASKS

ROOT = Path(__file__).resolve().parent.parent
DIGEST_RUNS = 3  # runs covered by the digests; the loop makes at least this many
SETUPS = {"full": 5, "tiny": 2}
CALIBRATE_EVERY_S = 0.25  # workload time between two timings of the reference
clock = time.perf_counter


class Calibration:
    """Times of the workload's reference: one run of each of the
    reference.py tasks it names."""

    def __init__(self, names):
        self.tasks = [REFERENCE_TASKS[name]() for name in names]
        self.nominal_s = sum(task.nominal_s for task in self.tasks)
        self.times: list[float] = []

    def time(self, clock) -> None:
        start = clock()
        for task in self.tasks:
            task.task()
        self.times.append(clock() - start)

    def mark(self) -> int:
        """The interval that starts at the latest timing."""
        return len(self.times)

    def scale(self, interval: int) -> float:
        """The factor from CPU seconds to reference seconds for work done
        in an interval, from the timings that bound it."""
        around = self.times[max(interval - 1, 0):interval + 1]
        return self.nominal_s / statistics.fmean(around)


def import_program() -> None:
    src = ROOT / "src"
    if not (src / "ghcrypt" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ghcrypt package under {src}")
    sys.path.insert(0, str(src))


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and which
    percentile that is (the maximum, 100, below eleven samples)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], round(100.0 * (n - 10) / n, 1)


def execute(workload, i: int, errors: list):
    """One run; a raised exception fails every check of the run."""
    from workloads import Run
    start = clock()
    try:
        run = workload.run(i)
    except Exception:
        if not errors:
            traceback.print_exc()
        errors.append(i)
        run = Run(failed=workload.checks_per_run)
    return run, clock() - start


def forget_messages(i: int, run) -> None:
    """Drop the message texts of a run the digests do not cover, so that
    peak_rss_mb measures the program rather than the runs kept here."""
    if i >= DIGEST_RUNS:
        run.messages = ()


def digest(items) -> str:
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    import_program()
    import tracer
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.size)
    tr = tracer.Tracer() if args.trace else None
    reference = Calibration(workload.reference_tasks)

    setup_times, setup_table, keys = [], tracer.new_table(), []
    for k in range(SETUPS[args.size]):
        reference.time(workloads.clock)
        setup_times.append(reference.mark())
        if tr:
            tr.table, tr.request_id = tracer.new_table(), -1 - k
            tr.install()
        start = workloads.clock()
        try:
            keys.append(workload.keygen(k))
        finally:
            setup_times[-1] = (setup_times[-1], workloads.clock() - start)
            if tr:
                tr.uninstall()
                tracer.merge(setup_table, tr.table)
    reference.time(workloads.clock)
    workload.prepare(args.seed, keys)
    gc.collect()

    runs, errors = [], []
    traced_runs, traced_tables, pairs, same_wire = [], [], [], True
    deadline = clock() + args.seconds
    i, since_reference = 0, 0.0
    while i < DIGEST_RUNS or clock() < deadline:
        if since_reference >= CALIBRATE_EVERY_S:
            reference.time(workloads.clock)
            since_reference = 0.0
        if not tr:
            runs.append(execute(workload, i, errors) + (reference.mark(),))
            since_reference += runs[-1][1]
            forget_messages(i, runs[-1][0])
        else:
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    tr.table, tr.request_id = tracer.new_table(), i
                    tr.install()
                    try:
                        traced_runs.append(execute(workload, i, errors))
                    finally:
                        tr.uninstall()
                    traced_tables.append(tr.table)
                else:
                    runs.append(execute(workload, i, errors))
            pairs.append((runs[-1], traced_runs[-1], traced_tables[-1]))
            since_reference += runs[-1][1] + traced_runs[-1][1]
            same_wire = same_wire and runs[-1][0].messages == traced_runs[-1][0].messages
            forget_messages(i, runs[-1][0])
            forget_messages(i, traced_runs[-1][0])
        i += 1
    reference.time(workloads.clock)

    all_runs = runs + traced_runs
    attempted = workload.checks_per_run * len(all_runs)
    failed = sum(run.failed for run, *_ in all_runs)
    details = {"workload": args.workload, "seed": args.seed, "size": args.size,
               "trace": args.trace, "runs": len(runs), "setups": len(setup_times),
               "error_rate": failed / attempted,
               "reference_s": statistics.median(reference.times),
               "references": len(reference.times),
               "wire_digest": digest([run.messages for run, *_ in runs[:DIGEST_RUNS]])}
    correct = failed == 0
    if tr:
        metrics = traced_metrics(tracer, tr, args, setup_table,
                                 len(setup_times), pairs, details)
        details["traced_wire_matches"] = same_wire
        correct = correct and same_wire
    else:
        metrics = end_to_end_metrics(setup_times, runs, reference, details)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def end_to_end_metrics(setup_times, runs, reference, details) -> dict:
    """Every end-to-end metric, in reference seconds.  ``setup_times`` and
    ``runs`` pair each key set's time and each run with the reference
    interval it ran in."""
    done = [(run, reference.scale(interval)) for run, _, interval in runs if run.wire_bytes]
    series = {
        "run_s": [k * run.run_s for run, k in done],
        "alice_send_s": [k * run.roles[0] for run, k in done],
        "bob_eval_s": [k * run.roles[1] for run, k in done],
        "alice_recv_s": [k * run.roles[2] for run, k in done],
        "encrypt_s": [k * t for run, k in done for t in run.encrypt_s],
        "decrypt_s": [k * t for run, k in done for t in run.decrypt_s],
        "root_s": [k * t for run, k in done for t in run.root_s],
    }
    setup = [reference.scale(interval) * t for interval, t in setup_times]
    metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"}}
    details["scale"] = statistics.median(k for _, k in done)
    details["samples"], details["tail_percentile"] = {}, {}
    for name, values in series.items():
        details["samples"][name] = len(values)
        if not values:
            continue
        metrics[f"{name}.p50"] = {"value": statistics.median(values), "unit": "s"}
        if name in ("run_s", "encrypt_s", "decrypt_s", "root_s"):
            value, percentile = tail(values)
            metrics[f"{name}.tail"] = {"value": value, "unit": "s"}
            details["tail_percentile"][name] = percentile
    wire = [run.wire_bytes for run, _ in done]
    if wire:
        metrics["wire_bytes"] = {"value": statistics.fmean(wire), "unit": "bytes"}
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = {"value": rss_kb / 1024, "unit": "MB"}
    return metrics


def traced_metrics(tracer, tr, args, setup_table, setups, pairs, details):
    """Per-layer metrics, the tracing overhead, and whether the spans'
    self times account for the traced runs within that overhead."""
    loop_table = tracer.new_table()
    for _, _, table in pairs:
        tracer.merge(loop_table, table)
    values = tracer.layer_values(setup_table, setups, loop_table, len(pairs))
    plain = [p[1] for p, _, _ in pairs]
    traced = [t[1] for _, t, _ in pairs]
    spans = [tracer.self_time(table) for _, _, table in pairs]
    overhead_s = statistics.median(t - p for p, t in zip(plain, traced))
    unattributed_s = statistics.median(t - s for t, s in zip(traced, spans))
    values["trace.overhead"] = statistics.median(t / p for p, t in zip(plain, traced))
    values["trace.unattributed_share"] = statistics.median(
        (t - s) / t for t, s in zip(traced, spans))
    values["trace.runs"] = len(pairs)
    units = {m["name"]: m["unit"] for m in tracer.per_layer_spec()}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    counted = [tracer.counts(setup_table)]
    counted += [tracer.counts(table) for _, _, table in pairs[:DIGEST_RUNS]]
    # reported, not gated: on runs of a millisecond the benchmark's own glue
    # is as large as the overhead, and both are noisy
    covered = 0 <= unattributed_s <= overhead_s
    details.update(count_digest=digest(counted), overhead_s=overhead_s,
                   unattributed_s=unattributed_s, spans_cover_run=covered)

    out = ROOT / ".perfbench" / f"trace-{args.workload}-{args.seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"fields": ["request", "span", "start", "end", "self_s"],
                               "roots": tr.roots}))
    details["trace_file"] = str(out.relative_to(ROOT))
    return metrics


if __name__ == "__main__":
    sys.exit(main())
