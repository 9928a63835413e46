#!/usr/bin/env python3
"""Seeded benchmark for surfclass.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload edgeword-long --seed 1 --seconds 30 --trace 0

Workloads (inputs in ``inputs.py``, operations and checks in ``workloads.py``):

  edgeword-long    certify one 16/40/80-pair word: build, normalize, render and
                   parse the trace, replay
  census-3         one census over {a,b,c}: enumerate, normalize all 1055
                   words, group by type, flood orbits
  lattice-scripts  run_script on one 8/16/24-blow-up construction script
  cli              one ``python -m surfclass.cli`` run in a fresh interpreter

One process, one caller, closed loop: the next operation starts when the
previous one has finished and been checked.  Checks and the negative
control run untimed, against oracles that share no code with surfclass.

With ``--trace 0`` the run passes over the workload's fixed set of inputs,
again and again, for ``--seconds`` (and at least once), and reports the
end-to-end metrics.  Every time is taken at a fixed machine pace (see
``reference_seconds``), and each input's time is the median of its passes.
``setup_s`` is the median, over fresh interpreters started at intervals
through the run, of the time each spends importing surfclass and building
the seeded inputs (bare interpreter start-up is left out).  With ``--trace 1`` it runs each input of a fixed
batch untraced, with every layer wrapped, and untraced again, so counts
repeat exactly for a seed, and reports the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON
object.  ``cross_seed.py`` runs two seeds and prints each metric's spread.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

perf = time.perf_counter
CHILD_REPEATS = 11  # fresh interpreters per start-up figure; the median is reported

# The pace of a shared machine drifts by a quarter or more over minutes as
# other load comes and goes, and a figure taken raw would follow it.  So the
# run times a fixed piece of the benchmark's own code between operations and
# scales each operation's time by REFERENCE_S over the mean of the reference
# times just before and after it.  Times are reported at the pace of a machine
# on which the reference takes REFERENCE_S, about that of an unloaded 2-vCPU
# x86 VM with Python 3.11.
REFERENCE_S = 0.005
_REFERENCE_WORD = inputs.random_word(random.Random(0), 60, False)
_REFERENCE_GRAM = [[(i * 7 + j * 7 + i * j) % 7 - 3 for j in range(12)] for i in range(12)]


def reference_seconds() -> float:
    """Time of the reference: the oracle's corner tracer and inertia count on
    fixed inputs.  It runs no surfclass code, and with the collector off
    nothing surfclass keeps in memory can slow it."""
    gc.disable()
    try:
        t0 = perf()
        for _ in range(30):
            oracle.trace_corners(_REFERENCE_WORD)
        oracle.inertia(_REFERENCE_GRAM)
        return perf() - t0
    finally:
        gc.enable()


def load_surfclass():
    """Import surfclass from this checkout's ``src``, and only from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import surfclass
    except ImportError as exc:
        raise SystemExit(f"cannot import surfclass from {src}: {exc}")
    if Path(surfclass.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"surfclass was imported from {surfclass.__file__}, not {src}")
    return surfclass


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return "none (not a git checkout)"
    return "unknown"


def environment() -> str:
    return (f"python {platform.python_version()}, git {git_sha()}, "
            f"nproc {len(os.sched_getaffinity(0))}, platform {platform.platform()}")


def tail(values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond): the highest percentile with ten
    samples beyond it.  The inputs of a workload are fixed, so this is the
    same percentile in every run."""
    s = sorted(values)
    idx = max(0, len(s) - 11)
    return 100 * (idx + 1) / len(s), s[idx], len(s) - idx - 1


def attempt(wl, item):
    """(outcome or None, problems) of one operation and its check."""
    try:
        outcome = wl.operate(item)
    except Exception as exc:  # a failing operation is counted, not fatal
        return None, [f"{type(exc).__name__}: {exc}"]
    try:
        return outcome, wl.check(item, outcome.value)
    except Exception as exc:
        return outcome, [f"check raised {type(exc).__name__}: {exc}"]


class Tally:
    def __init__(self) -> None:
        self.items: list = []  # every input attempted
        self.done: list = []  # (input index, outcome) of operations that passed
        self.last = None  # (item, value) of the newest of them
        self.failed = 0
        self.problems: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.items)

    def run(self, wl, index: int):
        """The outcome of one operation, or None when it failed its check."""
        item = wl.items[index]
        self.items.append(item)
        outcome, problems = attempt(wl, item)
        if problems or outcome is None:
            self.failed += 1
            self.problems += problems
            return None
        # keep only the newest value: retained results would grow the
        # collector's work, and so later timings, through the run
        self.last = (item, outcome.value)
        outcome.value = None
        self.done.append((index, outcome))
        return outcome

    @property
    def seconds(self) -> float:
        return sum(o.seconds for _, o in self.done)


def negative_control(wl, tally: Tally) -> tuple[bool, str]:
    """Feed the check one corrupted result; it must count as failed."""
    if tally.last is None:
        return False, "no passing operation to corrupt"
    try:
        problems = wl.check(*wl.control(*tally.last))
        source = "by check()"
    except Exception as exc:  # surfclass itself may reject the corruption
        problems = [f"{type(exc).__name__}: {exc}"]
        source = "by an exception, not by check()"
    reason = problems[0] if problems else "accepted"
    return bool(problems), f"{source}, error_ratio {int(bool(problems))}/1: {reason[:160]}"


def report_common(wl, tally: Tally) -> bool:
    """Print coverage and the negative control; True when the control held."""
    for line in wl.coverage(tally.items, tally.last and tally.last[1]):
        print(f"coverage: {line}")
    held, detail = negative_control(wl, tally)
    print(f"negative control ({wl.name}): {'detected' if held else 'MISSED'}, {detail}")
    for problem in tally.problems[:5]:
        print(f"FAILED: {problem[:300]}")
    return held


def ms(seconds: float) -> float:
    return seconds * 1e3


def metric(name: str, value: float, unit: str, note: str = "") -> tuple[str, dict]:
    print(f"metric {name} = {value:.6g} {unit}{('  ' + note) if note else ''}")
    return name, {"value": value, "unit": unit}


def setup_child(args) -> float:
    """Set-up time reported by a fresh interpreter run with ``--setup-only``."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--setup-only",
                           "--workload", args.workload, "--seed", str(args.seed)],
                          cwd=ROOT, env=workloads.child_env(ROOT), check=True,
                          stdout=subprocess.PIPE, text=True)
    return float(proc.stdout.split()[-1])


def per_input(samples):
    """Per input index, the median over its passes of its paced time, of each
    named stage's, and of each unit's (census words, by position)."""
    total: dict = {}
    parts: dict = {}
    units: dict = {}
    for index, o, pace in samples:
        total.setdefault(index, []).append(o.seconds * pace)
        for part, x in o.parts.items():
            parts.setdefault(index, {}).setdefault(part, []).append(x * pace)
        for j, x in enumerate(o.latencies or [o.seconds]):
            units.setdefault((index, j), []).append(x * pace)
    med = statistics.median
    return ({i: med(v) for i, v in total.items()},
            {i: {part: med(v) for part, v in d.items()} for i, d in parts.items()},
            {key: med(v) for key, v in units.items()})


def timed_run(wl, args) -> dict:
    wl.warmup()
    tally = Tally()
    samples = []  # (input index, outcome, pace) of each passing operation
    setup = []  # paced seconds of each set-up child
    refs = [reference_seconds()]

    def paced() -> float:
        """REFERENCE_S over the mean of the last two reference times."""
        refs.append(reference_seconds())
        return REFERENCE_S * 2 / (refs[-2] + refs[-1])

    start = perf()
    deadline = start + args.seconds
    n = len(wl.items)
    k = 0
    # every input at least once, then whole or partial passes until the deadline
    while k < n or perf() < deadline:
        if len(setup) < CHILD_REPEATS and perf() >= start + len(setup) * args.seconds / CHILD_REPEATS:
            t0 = perf()
            setup.append(setup_child(args) * paced())
            deadline += perf() - t0  # set-up children do not eat measuring time
        outcome = tally.run(wl, k % n)
        pace = paced()
        if outcome is not None:
            samples.append((k % n, outcome, pace))
        k += 1
    while len(setup) < CHILD_REPEATS:  # a run that ended before its last slot
        setup.append(setup_child(args) * paced())
    held = report_common(wl, tally)
    if not samples:
        raise SystemExit("no operation passed its check")

    times, parts, units = per_input(samples)
    print(f"passes over the {n} inputs: {len(samples) / len(times):.2f}; each input's time is "
          f"the median of its passes")
    print(f"pace: reference min {ms(min(refs)):.3f} ms, median {ms(statistics.median(refs)):.3f} ms, "
          f"max {ms(max(refs)):.3f} ms over {len(refs)} samples; times below are scaled to "
          f"{ms(REFERENCE_S):g} ms")
    by_stratum: dict = {}
    for index in times:
        by_stratum.setdefault(wl.items[index].stratum, []).append(index)
    for stratum, group in by_stratum.items():
        row = f"stratum {wl.stratum_label}={stratum}: n={len(group)} " \
              f"p50={ms(statistics.median(times[i] for i in group)):.3f} ms " \
              f"max={ms(max(times[i] for i in group)):.3f} ms"
        for part in parts.get(group[0], {}):
            row += f" {part}_p50={ms(statistics.median(parts[i][part] for i in group)):.3f} ms"
        print(row)

    latencies = list(units.values())
    rung, tail_value, beyond = tail(latencies)
    if wl.name == "cli":
        rss_kib = max(o.rss_kib for _, o in tally.done)
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    unit_note = " (per-word normalize)" if len(latencies) > len(times) else ""
    metrics = dict([
        metric("setup_s", statistics.median(setup), "s",
               f"median of {len(setup)}: " + " ".join(f"{x:.3f}" for x in setup)),
        metric("ops_per_s", len(times) / sum(times.values()), "1/s",
               f"{len(times)} inputs over the sum of their times; {len(samples)} ops run"),
        metric("op_p50_ms", ms(statistics.median(latencies)), "ms", f"n={len(latencies)}{unit_note}"),
        metric("op_tail_ms", ms(tail_value), "ms",
               f"p{rung:.4g}, n={len(latencies)}, {beyond} beyond{unit_note}"),
        metric("peak_rss_mib", rss_kib / 1024, "MiB", "children" if wl.name == "cli" else "this process"),
    ])
    # workload-specific figures, printed but not gated: BENCHMARK.json needs
    # every gated metric on every workload
    for part in parts.get(next(iter(times)), {}):
        metric(f"{part}_p50_ms", ms(statistics.median(p[part] for p in parts.values())), "ms", "not gated")
    if wl.name == "census-3":
        metric("census_s", statistics.median(times.values()), "s", "not gated")
    metric("error_ratio", tally.failed / tally.attempted, "ratio", f"{tally.failed}/{tally.attempted}")
    return {"correct": held and tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def trace_run(wl) -> dict:
    batch = range(min(wl.trace_batch, len(wl.items)))
    wl.warmup()
    tracer = tracing.Tracer()
    plain = Tally()  # each input untraced just before and after its traced run
    traced = Tally()
    for index in batch:
        plain.run(wl, index)
        tracer.install()
        wl.tracer = tracer
        try:
            traced.run(wl, index)
        finally:
            tracer.restore()
            wl.tracer = None
        plain.run(wl, index)
    held = report_common(wl, traced)

    env = workloads.child_env(ROOT)

    def child_median(argv):
        return statistics.median(workloads.run_child(ROOT, env, argv)[0] for _ in range(CHILD_REPEATS))

    interpreter = child_median([sys.executable, "-c", "pass"])
    imported = child_median([sys.executable, "-c", "import surfclass.cli"])
    command = statistics.median(o.seconds for _, o in plain.done) - imported if wl.name == "cli" else 0.0

    print("per-layer time, traced batch of", len(batch), "inputs:")
    for row in tracer.table():
        print("  " + row)
    plain_rate = len(plain.done) / plain.seconds if plain.done else 0.0
    traced_rate = len(traced.done) / traced.seconds if traced.done else 0.0
    overhead = 1 - traced_rate / plain_rate if plain_rate else 0.0
    print(f"tracing overhead: ops_per_s {plain_rate:.4g} untraced, {traced_rate:.4g} traced "
          f"({overhead:.1%} slower)")
    metrics = dict(metric(name, value, unit) for name, (value, unit) in tracer.metrics().items())
    metrics.update([
        metric("cli.interpreter_ms", ms(interpreter), "ms", "python -c pass"),
        metric("cli.import_ms", ms(imported - interpreter), "ms", "import surfclass.cli"),
        metric("cli.command_ms", ms(command), "ms", "op minus interpreter and import"),
        metric("trace.ops_per_s", traced_rate, "1/s", "traced"),
        metric("trace.overhead_share", overhead, "ratio", "1 - traced/untraced ops_per_s"),
    ])
    failed = plain.failed + traced.failed
    return {"correct": held and failed == 0, "attempted": plain.attempted + traced.attempted,
            "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description="Seeded benchmark for surfclass.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import surfclass, build the inputs and exit (times setup_s)")
    args = parser.parse_args()
    # Sets of words iterate in hash order, and the rotation enumerate_words
    # keeps for each word follows it; a fixed hash seed per --seed makes the
    # inputs, and so the traced counts, repeat exactly.
    hash_seed = str(args.seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        os.environ["PYTHONHASHSEED"] = hash_seed
        os.execv(sys.executable, [sys.executable, *sys.argv])

    t0 = perf()
    sc = load_surfclass()
    wl = workloads.WORKLOADS[args.workload](sc, ROOT, args.seed)
    try:
        if args.setup_only:
            print(perf() - t0)
            return 0
        print(f"# surfclass benchmark: workload {args.workload}, seed {args.seed}, "
              f"seconds {args.seconds:g}, trace {args.trace}")
        print(f"env: {environment()}")
        result = trace_run(wl) if args.trace else timed_run(wl, args)
    finally:
        wl.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
