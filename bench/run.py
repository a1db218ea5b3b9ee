"""coefflab benchmark: one closed-loop client in one process, no threads.

    python3 bench/run.py --workload report|search_wide|verify --seed N --seconds S --trace 0|1

Run it from the root of a checkout; coefflab is imported from ./src.  Each
op's inputs come from (seed, op index), and each op's output is checked by
the benchmark (see workloads.py).  Ops run until --seconds have passed and
every op key was visited once.

--trace 0 prints the end-to-end metrics: set-up time (fresh interpreter to
ready, median of several), median op time, ops completed per unit of op time
and peak resident memory.  --trace 1 runs every input twice, untraced and
traced, and prints the per-layer metrics (tracing.py) plus the ratio of the
two medians.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the lines above give the figures with
units and sample counts, the wall-clock op times (p50, p90 where a run has at
least 100 ops, ops per second), the fail rate and the machine.  Each run also
writes its full record, and in traced runs its spans, under bench/results/.

Op times in the result line are in calibration units (``cal``): each op's
wall time divided by the wall time of a fixed pure-Python loop (calibrate())
timed between ops around it; a report op is also calibrated between its
campaigns, and each stretch is divided by the loop times around it.  On a shared host the core's speed changes by up
to ~1.6x over seconds to minutes (turbo, a busy sibling thread), which moves
wall-clock medians between runs by more than any bound worth setting; the
loop slows down with the op, so the ratio stays put.  The wall-clock figures
are printed and recorded next to it.

``failed`` counts ops whose output check failed, determinism reruns included;
``correct`` is false when any op failed or when the exact counts of this seed
and code differ from an earlier run's.  Wrong membership verdicts on the
circles of workloads.KNOWN_DEFECT (the finite-difference defect near |z| = 1)
are not failed ops: every run prints how many ops gave one
(known_defect_rate) and the traced run counts them in
class_u.membership_wrong_verdicts.  A wrong verdict on any other circle is a
failed op.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

#: Fresh interpreters timed per untraced run (after one untimed one that fills
#: the bytecode cache).
SETUP_REPEATS = 7
#: Only a run with this many ops reports a p90 (ten samples above it).
P90_MIN_OPS = 100
#: The calibration loop's length, the most time between two calibrations, and
#: how many times each calibration runs the loop (the median is kept, so one
#: preemption of a few milliseconds does not skew the ops on either side).
CAL_ITERS = 12_000
CAL_EVERY_S = 0.2
CAL_REPEATS = 5


def _cal_step(z: complex, w: complex) -> tuple[complex, float]:
    return z * w + 0.5, abs(z - w)


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes now: the unit of op times.

    Like coefflab's hot loops, the loop does complex arithmetic through small
    function calls and tuples, so a busy neighbour slows it about as much."""
    samples = []
    for _ in range(CAL_REPEATS):
        t0 = time.perf_counter()
        z, w, acc = 0.5 + 0.25j, 0.3 - 0.4j, 0.0
        for _ in range(CAL_ITERS):
            z, d = _cal_step(z, w)
            acc += d
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def no_checkpoint() -> None:
    """What a workload's ``checkpoint`` does outside an untraced op: nothing."""


def import_package():
    init = SRC / "coefflab" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no coefflab sources at {init}")
    sys.path.insert(0, str(SRC))
    import coefflab

    if Path(coefflab.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported coefflab from {coefflab.__file__}, not {init}")
    return coefflab


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_start": list(os.getloadavg()),
    }


def measure_setup() -> list[float]:
    """Seconds from starting a fresh interpreter to its ``ready`` line."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py")]
    expected = (SRC / "coefflab" / "cli.py").resolve()
    samples = []
    for k in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            _, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        fields = line.split(maxsplit=1)
        if proc.returncode != 0 or fields[:1] != ["ready"] or \
                Path(fields[1].strip()).resolve() != expected:
            raise RuntimeError(f"set-up probe failed: {line!r} {err.strip()}")
        if k:
            samples.append(elapsed)
    return samples


class Run:
    """Ops attempted in one run, their times and their check results."""

    def __init__(self, workload, seed: int):
        self.wl = workload
        self.seed = seed
        self.times = {"untraced": [], "traced": []}
        # (start, seconds) of each stretch of an op between two calibrations
        self.segments = {"untraced": [], "traced": []}
        self.cal: list[tuple[float, float]] = []  # (start, seconds) of each calibration
        self.problems: dict[int, list[tuple[str, str]]] = {}
        self.known: dict[int, list[tuple[str, str]]] = {}  # attempt -> known-defect verdicts
        self.first: dict[int, tuple[int, object]] = {}  # op index -> (attempt, output)
        self.attempted = 0

    def checkpoint(self) -> None:
        """Calibrate inside a long op; the time this takes is not op time."""
        now = time.perf_counter()
        self._segments.append((self._segment_start, now - self._segment_start))
        self.cal.append((now, calibrate()))
        self._segment_start = time.perf_counter()

    def attempt(self, i: int, inp, run_op, mode: str):
        # Only untraced ops calibrate inside: in a traced op the pause would
        # count as cli self time.
        self.wl.checkpoint = self.checkpoint if mode == "untraced" else no_checkpoint
        self._segments = []
        self._segment_start = time.perf_counter()
        try:
            out, error = run_op(inp), None
        except Exception as exc:  # an op that raises is a failed op; the run goes on
            out, error = None, exc
        end = time.perf_counter()
        self.wl.checkpoint = no_checkpoint
        self._segments.append((self._segment_start, end - self._segment_start))
        self.segments[mode].append(self._segments)
        self.times[mode].append(sum(dt for _, dt in self._segments))
        if error is not None:
            self._record([("error", f"op {i}: {error!r}")])
            return
        if i < self.wl.cycle and i not in self.first:
            self.first[i] = (self.attempted, out)
        try:
            found = self.wl.check(inp, out)
        except Exception as exc:
            found = [("error", f"op {i}: check raised {exc!r}")]
        self._record(found)

    def _record(self, found) -> None:
        known = [p for p in found if p[0] == "known-defect"]
        failed = [p for p in found if p[0] != "known-defect"]
        if known:
            self.known[self.attempted] = known
        if failed:
            self.problems[self.attempted] = failed
        self.attempted += 1

    def closed_loop(self, seconds: float, tracer=None) -> None:
        """Ops until `seconds` have passed and every op key ran once.  With a
        tracer each input runs untraced and traced, alternating which is first."""
        def traced(inp):
            return tracer.op(self.wl.run, inp)

        deadline = time.perf_counter() + seconds
        i = 0
        while time.perf_counter() < deadline or i < self.wl.cycle:
            self._calibrate()
            inp = self.wl.make_input(self.seed, i)
            modes = [("untraced", self.wl.run)]
            if tracer is not None:
                modes.append(("traced", traced))
                if i % 2:
                    modes.reverse()
            for mode, run_op in modes:
                self.attempt(i, inp, run_op, mode)
            i += 1
        self._calibrate(force=True)

    def _calibrate(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or not self.cal or now - self.cal[-1][0] >= CAL_EVERY_S:
            self.cal.append((now, calibrate()))

    def in_cal(self, mode: str) -> list[float]:
        """Op times in loop units: each stretch of an op divided by the mean of
        the calibrations just before and after it."""
        starts = [t for t, _ in self.cal]
        out = []
        for segments in self.segments[mode]:
            total = 0.0
            for t0, dt in segments:
                k = bisect.bisect_left(starts, t0)  # self.cal[k] is the first one after
                near = [c for _, c in self.cal[max(k - 1, 0):k + 1]]
                total += dt / statistics.fmean(near)
            out.append(total)
        return out

    def rerun(self) -> dict:
        """Rerun ops 0 .. cycle-1 and compare bit for bit (repr of the whole
        output); a mismatch fails the original op.  Returns the exact counts."""
        pairs = []
        for i in range(self.wl.cycle):
            inp = self.wl.make_input(self.seed, i)
            try:
                out = self.wl.run(inp)
            except Exception as exc:
                self._record([("error", f"rerun of op {i}: {exc!r}")])
                continue
            if i in self.first:
                attempt, earlier = self.first[i]
                if repr(out) != repr(earlier):
                    self.problems.setdefault(attempt, []).append(
                        ("determinism", f"op {i}: rerun output differs"))
            pairs.append((inp, out))
        return self.wl.counts(pairs)

    @property
    def failed(self) -> int:
        return len(self.problems)


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def counts_repeat(workload: str, seed: int, counts: dict) -> str | None:
    """Compare the exact counts with an earlier run of this seed and code."""
    path = RESULTS / "counts.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    key = f"{workload} seed={seed} src={code_digest()}"
    if key in known and known[key] != counts:
        return f"exact counts changed between runs of {key}: {known[key]} -> {counts}"
    known[key] = counts
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return None


def metric(value: float, unit: str, n: int, note: str = "") -> dict:
    return {"value": value, "unit": unit, "n": n, "note": note}


def end_to_end(run: Run, setup: list[float]) -> tuple[dict, dict]:
    """(metrics for the result line, wall-clock figures and fail rate for the table)."""
    times = run.times["untraced"]
    cal = run.in_cal("untraced")
    n = len(times)
    out = {
        "setup_s": metric(statistics.median(setup), "s", len(setup)),
        "op_p50_cal": metric(statistics.median(cal), "cal", n, "median op time / loop time"),
        "ops_per_cal": metric(n / sum(cal), "1/cal", n, "ops per loop time of op time"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                              "MB", 1),
    }
    loop = [c for _, c in run.cal]
    extra = {
        "op_p50_ms": metric(1e3 * statistics.median(times), "ms", n, "wall clock"),
        "op_p90_ms": (metric(1e3 * statistics.quantiles(times, n=10)[8], "ms", n, "wall clock")
                      if n >= P90_MIN_OPS else
                      metric(None, "ms", n, f"not reported: fewer than {P90_MIN_OPS} ops")),
        "ops_per_s": metric(n / sum(times), "1/s", n, "wall clock, per second of op time"),
        "fail_rate": metric(run.failed / run.attempted, "ratio", run.attempted,
                            f"{run.failed} of {run.attempted} ops failed a check"),
        "known_defect_rate": metric(len(run.known) / run.attempted, "ratio", run.attempted,
                                    f"{len(run.known)} of {run.attempted} ops gave a wrong "
                                    "verdict on a KNOWN_DEFECT circle"),
        "cal_loop_ms": metric(1e3 * statistics.median(loop), "ms", len(loop),
                              "calibration loop, median"),
    }
    return out, extra


def per_layer(run: Run, tracer, probe, counts: dict, seed: int) -> dict:
    import tracing

    out = tracing.layer_metrics(tracer, probe)
    for name, value in tracing.per_call_timings(np.random.default_rng([seed, 1 << 20])).items():
        out[name] = metric(value, "us", tracing.PER_CALL_POINTS, "per call on a fixed batch")
    restarts = counts["search.unseeded_restarts"]
    out["search.evaluations"] = metric(counts["search.evaluations"], "count", run.wl.cycle,
                                       "exact, over ops 0..cycle-1")
    out["search.unseeded_hit_rate"] = metric(
        counts["search.unseeded_hits"] / restarts if restarts else 0.0, "ratio", restarts,
        "exact, over ops 0..cycle-1")
    out["class_u.membership_wrong_verdicts"] = metric(
        counts["class_u.membership_wrong_verdicts"], "count", run.wl.cycle,
        "exact, over ops 0..cycle-1")
    out["trace.overhead"] = metric(
        statistics.median(run.in_cal("traced")) / statistics.median(run.in_cal("untraced")),
        "ratio", len(run.times["traced"]), "traced / untraced op_p50_cal")
    return out


def print_table(title: str, rows: dict) -> None:
    print(title)
    for name, m in rows.items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        extra = " ".join(x for x in (m.get("source", ""), m.get("note", "")) if x)
        print(f"  {name:36s} {value:>14s} {m['unit']:6s} n={m['n']:<8d} {extra}".rstrip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    host = machine()
    import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]()
    print(f"coefflab benchmark: workload={wl.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"why: {wl.why}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in host.items()))
    RESULTS.mkdir(exist_ok=True)

    setup = measure_setup() if not args.trace else []
    workloads.warm_up()
    run = Run(wl, args.seed)
    if args.trace:
        import tracing

        tracer, probe = tracing.Tracer(), tracing.Tracer()
        run.closed_loop(args.seconds, tracer)
        for _ in range(tracing.PROBE_ROUNDS):
            for probe_argv in tracing.PROBE:
                probe.op(workloads.quiet_cli, probe_argv)
    else:
        run.closed_loop(args.seconds)
    counts = run.rerun()
    repeat = counts_repeat(wl.name, args.seed, counts)

    if args.trace:
        shown = per_layer(run, tracer, probe, counts, args.seed)
        loop = [c for _, c in run.cal]
        extra = {"cal_loop_ms": metric(1e3 * statistics.median(loop), "ms", len(loop),
                                       "calibration loop, median; per-layer times are wall clock")}
    else:
        shown, extra = end_to_end(run, setup)
    print_table("metrics:", {**shown, **extra})
    if args.trace:
        print("spans (traced ops): name calls busy_ms self_ms ops")
        for row in tracer.table():
            print(f"  {row['name']:36s} {row['calls']:9d} {row['busy_ms']:12.3f} "
                  f"{row['self_ms']:12.3f} {row['ops']:6d}")
        if tracer.missing:
            print("not traced (attribute missing): " + ", ".join(tracer.missing))
    problems = [p for found in run.problems.values() for p in found]
    if repeat:
        problems.append(("repeat", repeat))
    for (kind, message), times in Counter(problems).most_common(20):
        print(f"check failed [{kind}] x{times}: {message}")
    known = [p for found in run.known.values() for p in found]
    for (_, message), times in Counter(known).most_common():
        print(f"known defect x{times}: {message}")

    correct = run.failed == 0 and repeat is None
    record = {"workload": wl.name, "why": wl.why, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": host, "correct": correct,
              "attempted": run.attempted, "failed": run.failed, "counts": counts,
              "metrics": {**shown, **extra}, "problems": problems, "known_defect": known,
              "op_ms": {mode: [1e3 * t for t in ts] for mode, ts in run.times.items()},
              "op_segments_s": run.segments, "cal_s": run.cal}
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        record["spans"] = {"ops": tracer.table(), "probe": probe.table()}
        tracer.write(RESULTS / f"{stem}-spans.jsonl")
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
