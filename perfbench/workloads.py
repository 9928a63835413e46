"""The four workloads: inputs, one timed operation, its untimed check, a
negative control and an input-coverage summary.

Every call into surfclass goes through the package namespace (``sc.normalize``
and so on) at call time, so a traced run sees the wrapped functions.
"""
from __future__ import annotations

import dataclasses
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import oracle

perf = time.perf_counter


@dataclass
class Outcome:
    seconds: float  # the whole operation
    value: object  # what the check reads
    parts: dict = field(default_factory=dict)  # seconds of named stages
    latencies: list | None = None  # per-unit latencies, when finer than the op
    rss_kib: int = 0  # peak RSS of the child process, for the cli workload


class Workload:
    name = ""
    stratum_label = ""
    trace_batch = 0  # inputs in a traced run; fixed so counts repeat exactly
    tracer = None  # set during a traced run; cli children then trace themselves

    def __init__(self, sc, root: Path, seed: int) -> None:
        self.sc = sc
        self.root = root
        self.items: list = []

    def warmup(self) -> None:
        """Untimed: let imports and lazy set-up finish."""

    def operate(self, item) -> Outcome:
        raise NotImplementedError

    def check(self, item, value) -> list[str]:
        raise NotImplementedError

    def control(self, item, value):
        """(item, corrupted value) that `check` must reject."""
        raise NotImplementedError

    def coverage(self, attempted: list, last_value) -> list[str]:
        raise NotImplementedError

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------


class EdgewordLong(Workload):
    """Certify one word: build, normalize, render + parse the trace, replay."""

    name = "edgeword-long"
    stratum_label = "pairs"
    trace_batch = 18  # six per stratum: every form, orientable and not

    def __init__(self, sc, root, seed):
        super().__init__(sc, root, seed)
        self.items = inputs.edgeword_inputs(seed)

    def warmup(self):
        self.operate(self.items[0])

    def operate(self, item):
        sc = self.sc
        t0 = perf()
        if item.form == "text":
            word = sc.parse_word(item.text)
        elif item.form == "sum":
            word = sc.connected_sum_words(sc.parse_word(item.text), sc.parse_word(item.right))
        else:
            word = sc.glue_polygons(sc.parse_polygon_file(item.text))
        t1 = perf()
        result = sc.normalize(word)
        t2 = perf()
        trace = sc.parse_trace(result.trace.render(), word)
        final = sc.replay(trace)
        t3 = perf()
        return Outcome(t3 - t0, (word, result.type, trace, final),
                       {"normalize": t2 - t1, "replay": t3 - t2})

    def check(self, item, value):
        word, t, _, final = value
        got = oracle.word_type(word.letters)
        problems = []
        if got != item.expected:
            problems.append(f"built word presents {got}, the input {item.expected}")
        if (t.orientable, t.genus) != got:
            problems.append(f"normalize says {t}, the invariants {oracle.type_name(got)}")
        if final.render() != oracle.canonical_text(got):
            problems.append(f"replay ends on {final.render()!r}, not the canonical word")
        return problems

    def control(self, item, value):
        # the certificate with its last step dropped: every earlier step still
        # fits, so it replays cleanly and ends one move short of the canonical
        # word, which the check alone has to catch
        word, t, trace, _ = value
        cut = self.sc.MoveTrace(trace.initial, trace.steps[:-1])
        return item, (word, t, cut, self.sc.replay(cut))

    def coverage(self, attempted, last_value):
        if not any(item.orientable for item in attempted):
            raise SystemExit("edgeword-long: no orientable words among the inputs")
        lines = [
            "pairs: " + ", ".join(f"{k}:{n}" for k, n in sorted(Counter(i.stratum for i in attempted).items())),
            f"orientable share: {sum(i.orientable for i in attempted) / len(attempted):.2f}",
            "forms: " + ", ".join(f"{k}:{n}" for k, n in sorted(Counter(i.form for i in attempted).items())),
        ]
        for pairs in inputs.PAIR_STRATA:
            v = sorted(i.vertices for i in attempted if i.stratum == pairs)
            if v:
                lines.append(f"vertex classes at {pairs} pairs: min {v[0]} median "
                             f"{statistics.median(v):g} max {v[-1]}")
        return lines


# ---------------------------------------------------------------------------


class Census3(Workload):
    """One full census over {a,b,c}: enumerate, normalize all, group by type,
    then flood the orbit of the two criterion-2 representatives and one
    seed-chosen word of every type."""

    name = "census-3"
    stratum_label = "job"
    trace_batch = 1

    def __init__(self, sc, root, seed):
        super().__init__(sc, root, seed)
        self.items = inputs.census_inputs(seed)

    def warmup(self):
        self.sc.orbit_oracle(self.sc.parse_word("a a'"), max_symbols=3)

    def operate(self, item):
        sc = self.sc
        t0 = perf()
        universe = sc.enumerate_words(inputs.CENSUS_SYMBOLS)
        latencies = []
        by_type: dict = {}
        for w in universe:
            s = perf()
            t = sc.normalize(w).type
            latencies.append(perf() - s)
            by_type.setdefault(t, set()).add(w)
        orbits = []
        for k, t in enumerate(sorted(by_type, key=str)):
            ordered = sorted(by_type[t], key=lambda w: (len(w), w.render()))
            pick = ordered[int(item.picks[k % len(item.picks)] * len(ordered))]
            for rep in dict.fromkeys((ordered[0], ordered[-1], pick)):
                orb = sc.orbit_oracle(rep, max_symbols=len(inputs.CENSUS_SYMBOLS), budget=100_000)
                orbits.append((t, rep, orb.words, orb.exhausted))
        return Outcome(perf() - t0, (universe, by_type, orbits), latencies=latencies)

    def check(self, item, value):
        universe, by_type, orbits = value
        problems = []
        if len(universe) != 1055:
            problems.append(f"{len(universe)} words over three symbols, not 1055")
        for t, words in by_type.items():
            wrong = [w for w in words if oracle.word_type(w.letters) != (t.orientable, t.genus)]
            if wrong:
                problems.append(f"{len(wrong)} words grouped under {t} have other invariants")
        for t, rep, words, exhausted in orbits:
            if not exhausted or words != frozenset(by_type[t]):
                problems.append(f"orbit of {rep.render()!r} ({len(words)} words) is not the "
                                f"{len(by_type[t])} words of {t}")
        return problems

    def control(self, item, value):
        # the first orbit with one word missing
        universe, by_type, orbits = value
        t, rep, words, exhausted = orbits[0]
        missing = max(words, key=lambda w: (len(w), w.render()))
        return item, (universe, by_type, [(t, rep, words - {missing}, exhausted)] + orbits[1:])

    def coverage(self, attempted, last_value):
        if last_value is None:
            return ["no census finished"]
        _, by_type, orbits = last_value
        return [
            "words per type: " + ", ".join(f"{t}:{len(w)}" for t, w in sorted(by_type.items(), key=lambda kv: str(kv[0]))),
            f"orbits flooded per job: {len(orbits)}",
        ]


# ---------------------------------------------------------------------------


class LatticeScripts(Workload):
    """``run_script`` on one generated construction script."""

    name = "lattice-scripts"
    stratum_label = "blow-ups"
    trace_batch = 15  # five per stratum: every base

    def __init__(self, sc, root, seed):
        super().__init__(sc, root, seed)
        self.items = inputs.script_inputs(seed)

    def warmup(self):
        self.operate(self.items[0])

    def operate(self, item):
        t0 = perf()
        outcome = self.sc.run_script(item.text)
        return Outcome(perf() - t0, outcome)

    def check(self, item, outcome):
        surf = outcome.surface
        problems = oracle.lattice_problems(surf.gram, surf.canonical.coords)
        if len(outcome.reductions) != 1 or not outcome.reports:
            return problems + ["script did not yield one reduction and a report"]
        reduction = outcome.reductions[0]
        before = (3 if item.base == "cp2" else 4) + item.stratum - item.blowdowns
        if surf.rank + 2 != before - len(reduction.steps):
            problems.append(f"Euler number {surf.rank + 2} after {len(reduction.steps)} "
                            f"contractions from {before}")
        problems += oracle.report_problems(outcome.reports[-1], surf.rank)
        want = inputs.RECOVERABLE.get(item.base)
        if item.plain and want and str(reduction.final) != want:
            problems.append(f"plain blow-ups of {item.base} reduced to {reduction.final}")
        return problems

    def control(self, item, outcome):
        # the final lattice with K moved by the first basis vector
        surf = outcome.surface
        k = (surf.canonical.coords[0] + 1,) + surf.canonical.coords[1:]
        bad = dataclasses.replace(surf, canonical=self.sc.DivisorClass(k))
        return item, self.sc.ScriptOutcome(bad, outcome.events)

    def coverage(self, attempted, last_value):
        blowups = sum(i.stratum for i in attempted)
        return [
            "blow-ups: " + ", ".join(f"{k}:{n}" for k, n in sorted(Counter(i.stratum for i in attempted).items())),
            "bases: " + ", ".join(f"{k}:{n}" for k, n in sorted(Counter(i.base for i in attempted).items())),
            f"blow-ups on a tracked line: {sum(i.on_lines for i in attempted) / blowups:.2f}",
            f"scripts with a blowdown: {sum(i.blowdowns > 0 for i in attempted)}, "
            f"plain scripts: {sum(i.plain for i in attempted)}",
        ]


# ---------------------------------------------------------------------------


def child_env(root: Path) -> dict:
    """Environment for child interpreters: surfclass from the checkout, with
    its bytecode cached as an installed package would have it."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def run_child(root: Path, env: dict, argv: list[str]) -> tuple[float, int, str, str, int]:
    """(seconds, exit code, stdout, stderr, peak RSS KiB) of one child."""
    t0 = perf()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            cwd=root, env=env)
    out = proc.stdout.read()  # outputs are small: neither pipe can fill up
    err = proc.stderr.read()
    proc.stdout.close()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (perf() - t0, proc.returncode, out.decode("utf-8", "replace"),
            err.decode("utf-8", "replace"), usage.ru_maxrss)


CLI_TRACED = "import sys; sys.path.insert(0, sys.argv[1]); import tracing; " \
             "sys.exit(tracing.run_cli_traced(sys.argv[2], sys.argv[3:]))"


class Cli(Workload):
    """One ``python -m surfclass.cli`` run in a fresh interpreter."""

    name = "cli"
    stratum_label = "command"
    trace_batch = 15  # one block: every command, a README example, two malformed

    def __init__(self, sc, root, seed):
        super().__init__(sc, root, seed)
        work = root / "perfbench" / ".work"
        work.mkdir(parents=True, exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(dir=work))
        self.env = child_env(root)
        self.items = inputs.cli_inputs(seed, self.workdir, self._trace_document)

    def _trace_document(self, text: str) -> str:
        word = self.sc.parse_word(text)
        result = self.sc.normalize(word)
        return f"# initial: {word.render()}\n{result.trace.render()}\n"

    def warmup(self):
        run_child(self.root, self.env, [sys.executable, "-m", "surfclass.cli", "classify", "a a"])

    def operate(self, item):
        if self.tracer is None:
            argv = [sys.executable, "-m", "surfclass.cli", *item.args]
        else:
            stats = self.workdir / "stats.json"
            argv = [sys.executable, "-c", CLI_TRACED, str(self.root / "perfbench"), str(stats), *item.args]
        seconds, code, out, err, rss = run_child(self.root, self.env, argv)
        if self.tracer is not None:
            self.tracer.merge(json.loads(stats.read_text(encoding="utf-8")))
            stats.unlink()
        return Outcome(seconds, (code, out, err), rss_kib=rss)

    def check(self, item, value):
        code, out, err = value
        if code != item.expect_code:
            return [f"exit {code}, expected {item.expect_code}: {err.strip()[:120]}"]
        if code != 0:
            return [] if err.startswith("error: ") else [f"no error message: {err[:120]!r}"]
        if item.golden:
            got = "".join(out.splitlines(keepends=True)[:4]) if "--trace" in item.args else out
            return [] if got == item.golden else [f"README example differs: {got!r}"]
        if "--json" in item.args:
            payload = json.loads(out)
            if item.stratum == "rational":
                lat = payload["lattice"]
                problems = oracle.lattice_problems(lat["gram"], lat["canonical"])
                if payload["b2"] != len(lat["basis"]) or payload["euler"] != payload["b2"] + 2:
                    problems.append(f"b2/euler fields disagree with the lattice: {payload}")
                return problems
            t = item.expected
            if payload["type"] != oracle.type_name(t) or payload["canonical"] != oracle.canonical_text(t):
                return [f"JSON {payload['type']} {payload['canonical']!r}, expected {oracle.type_name(t)}"]
            return []
        if item.stratum == "rational":
            return oracle.report_problems(out)
        key = {"normalize": "# canonical: ", "replay": "final: "}.get(item.stratum, "canonical: ")
        found = [line[len(key):] for line in out.splitlines() if line.startswith(key)]
        want = oracle.canonical_text(item.expected)
        return [] if found == [want] else [f"{key.strip()} {found}, expected {want!r}"]

    def control(self, item, value):
        # a malformed word where a well-formed one was expected
        bad = inputs.CliInput("classify", ("classify", "a b a' $", "--json"), 0, "", (True, 1))
        return bad, self.operate(bad).value

    def coverage(self, attempted, last_value):
        ok = [i for i in attempted if i.expect_code == 0]
        return [
            "commands: " + ", ".join(f"{k}:{n}" for k, n in sorted(Counter(i.stratum for i in attempted).items())),
            f"--json share: {sum('--json' in i.args for i in ok) / max(1, len(ok)):.2f}, "
            f"README examples: {sum(bool(i.golden) for i in ok)}, "
            f"malformed share: {1 - len(ok) / len(attempted):.2f}",
        ]

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            self.workdir.parent.rmdir()  # fails while another run still uses it
        except OSError:
            pass


WORKLOADS = {w.name: w for w in (EdgewordLong, Census3, LatticeScripts, Cli)}
