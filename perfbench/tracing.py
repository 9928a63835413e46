"""Per-layer tracing from outside the program.

`Tracer.install` wraps the public function of each layer in every surfclass
module that holds a reference to it, so calls are seen where the caller
looks the name up (``normalize``, ``orbit``, ``minimal`` and ``script``
import names directly).  Each wrapper records calls, total time and the time
spent in wrapped callees, which gives self time.  A few wrappers also read
counts off arguments or results; that work runs outside the callee's own
interval.  `restore` puts every original back.
"""
from __future__ import annotations

import json
import sys
import time
from typing import Callable

perf = time.perf_counter

# (layer, module, attribute) for every wrapped function
LAYERS = (
    ("words.corner_classes", "words", "corner_classes"),
    ("words.invariants", "words", "euler_characteristic"),
    ("words.invariants", "words", "is_orientable"),
    ("words.validate", "words", "validate"),
    ("words.parse_word", "words", "parse_word"),
    ("words.parse_polygon_file", "words", "parse_polygon_file"),
    ("words.glue_polygons", "words", "glue_polygons"),
    ("sums.connected_sum_words", "sums", "connected_sum_words"),
    ("moves.apply_move", "moves", "apply_move"),
    ("moves.replay", "moves", "replay"),
    ("moves.parse_trace", "moves", "parse_trace"),
    ("normalize.normalize", "normalize", "normalize"),
    ("orbit.enumerate_words", "orbit", "enumerate_words"),
    ("orbit.orbit_oracle", "orbit", "orbit_oracle"),
    ("orbit.successors", "orbit", "_successors"),
    ("lattice.blow_up", "lattice", "blow_up"),
    ("lattice.blow_down", "lattice", "blow_down"),
    ("lattice.intersect", "lattice", "intersect"),
    ("minimal.minimal_model", "minimal", "minimal_model"),
    ("minimal.find_minus_one_lines", "minimal", "find_minus_one_lines"),
    ("minimal.classify_minimal", "minimal", "classify_minimal"),
    ("script.run_script", "script", "run_script"),
    ("script.render_report", "script", "render_report"),
    ("script.parse_class_expr", "script", "parse_class_expr"),
)
MOVE_KINDS = ("rotate", "reflect", "rename", "flipedge", "cancel", "insert", "cutpaste")

# per-layer metrics in the order they are reported:
# (name, unit, kind, layer); kind picks calls, total ms, self ms or a counter
METRICS = (
    [
        ("words.Word.calls", "count", "calls", "words.Word"),
        ("words.Word.ms", "ms", "ms", "words.Word"),
        ("words.corner_classes.calls", "count", "calls", "words.corner_classes"),
        ("words.corner_classes.ms", "ms", "ms", "words.corner_classes"),
        ("words.invariants.ms", "ms", "ms", "words.invariants"),
        ("words.validate.ms", "ms", "ms", "words.validate"),
        ("words.parse_word.ms", "ms", "ms", "words.parse_word"),
        ("words.parse_polygon_file.ms", "ms", "ms", "words.parse_polygon_file"),
        ("words.glue_polygons.ms", "ms", "ms", "words.glue_polygons"),
        ("sums.connected_sum_words.ms", "ms", "ms", "sums.connected_sum_words"),
        ("moves.replay.ms", "ms", "ms", "moves.replay"),
        ("moves.parse_trace.ms", "ms", "ms", "moves.parse_trace"),
        ("moves.apply_move.calls", "count", "calls", "moves.apply_move"),
        ("moves.apply_move.ms", "ms", "ms", "moves.apply_move"),
    ]
    + [
        (f"moves.apply_move.{kind}.{field}", unit, field, f"moves.apply_move.{kind}")
        for kind in MOVE_KINDS
        for field, unit in (("calls", "count"), ("ms", "ms"))
    ]
    + [
        ("normalize.normalize.self_ms", "ms", "self_ms", "normalize.normalize"),
        ("normalize.moves_emitted", "count", "counter", "normalize.moves_emitted"),
        ("normalize.trial_ratio", "ratio", "derived", ""),
        ("orbit.enumerate_words.ms", "ms", "ms", "orbit.enumerate_words"),
        ("orbit.orbit_oracle.self_ms", "ms", "self_ms", "orbit.orbit_oracle"),
        ("orbit.expanded", "count", "counter", "orbit.expanded"),
        ("orbit.successors", "count", "counter", "orbit.successors"),
        ("orbit.new_ratio", "ratio", "derived", ""),
        ("lattice.blow_up.calls", "count", "calls", "lattice.blow_up"),
        ("lattice.blow_up.ms", "ms", "ms", "lattice.blow_up"),
        ("lattice.blow_down.calls", "count", "calls", "lattice.blow_down"),
        ("lattice.blow_down.ms", "ms", "ms", "lattice.blow_down"),
        ("lattice.blow_down.rank_sum", "count", "counter", "lattice.blow_down.rank_sum"),
        ("lattice.blow_down.unit_pivot_share", "ratio", "derived", ""),
        ("lattice.intersect.calls", "count", "calls", "lattice.intersect"),
        ("lattice.intersect.ms", "ms", "ms", "lattice.intersect"),
        ("minimal.minimal_model.self_ms", "ms", "self_ms", "minimal.minimal_model"),
        ("minimal.contractions", "count", "counter", "minimal.contractions"),
        ("minimal.find_minus_one_lines.calls", "count", "calls", "minimal.find_minus_one_lines"),
        ("minimal.find_minus_one_lines.ms", "ms", "ms", "minimal.find_minus_one_lines"),
        ("minimal.classify_minimal.ms", "ms", "ms", "minimal.classify_minimal"),
        ("script.run_script.self_ms", "ms", "self_ms", "script.run_script"),
        ("script.render_report.ms", "ms", "ms", "script.render_report"),
        ("script.parse_class_expr.ms", "ms", "ms", "script.parse_class_expr"),
    ]
)


class Tracer:
    """Call statistics for the wrapped layers of one process."""

    def __init__(self) -> None:
        # layer -> [calls, total seconds, seconds inside wrapped callees]
        self.stats: dict[str, list] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []  # [layer, callee seconds] per active call
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _add(self, layer: str, dt: float, inner: float) -> None:
        st = self.stats.setdefault(layer, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += dt
        st[2] += inner

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def active(self, layer: str) -> bool:
        return any(frame[0] == layer for frame in self._stack)

    def wrap(self, layer: str, fn: Callable, after: Callable | None = None) -> Callable:
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                self._add(layer, dt, frame[1])
            if after is not None:
                after(args, result, dt)
            return result

        return traced

    # -- hooks that read counts off arguments and results --------------------

    def _after_apply_move(self, args, result, dt) -> None:
        self._add(f"moves.apply_move.{type(args[1]).__name__.lower()}", dt, 0.0)
        if self.active("normalize.normalize"):
            self.count("normalize.apply_move_calls")

    def _after_normalize(self, args, result, dt) -> None:
        self.count("normalize.moves_emitted", len(result.trace.steps))

    def _after_orbit(self, args, result, dt) -> None:
        self.count("orbit.expanded", result.expanded)
        self.count("orbit.reached", len(result.words))

    def _after_successors(self, args, result, dt) -> None:
        self.count("orbit.successors", len(result))

    def _after_blow_down(self, args, result, dt) -> None:
        surf, line = args[0], args[1]
        c = surf.tracked_class(line).coords
        n = surf.rank
        w = [sum(surf.gram[i][j] * c[j] for j in range(n)) for i in range(n)]
        self.count("lattice.blow_down.rank_sum", n)
        if any(abs(x) == 1 for x in w):
            self.count("lattice.blow_down.unit_pivot")

    def _after_minimal(self, args, result, dt) -> None:
        self.count("minimal.contractions", len(result.steps))

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        from surfclass import cli, words  # noqa: F401  (cli loads every module)

        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "surfclass" or name.startswith("surfclass."))]
        hooks = {
            "moves.apply_move": self._after_apply_move,
            "normalize.normalize": self._after_normalize,
            "orbit.orbit_oracle": self._after_orbit,
            "orbit.successors": self._after_successors,
            "lattice.blow_down": self._after_blow_down,
            "minimal.minimal_model": self._after_minimal,
        }
        for layer, module, attr in LAYERS:
            original = getattr(sys.modules[f"surfclass.{module}"], attr)
            wrapped = self.wrap(layer, original, hooks.get(layer))
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, name, original))
                        setattr(mod, name, wrapped)
        # the Word constructor, least-rotation key included
        word_cls = words.Word
        post_init = word_cls.__post_init__
        self._undo.append((word_cls, "__post_init__", post_init))
        word_cls.__post_init__ = self.wrap("words.Word", post_init)

    def restore(self) -> None:
        while self._undo:
            obj, name, original = self._undo.pop()
            setattr(obj, name, original)

    # -- results -------------------------------------------------------------

    def dump(self) -> dict:
        return {"stats": self.stats, "counters": self.counters}

    def merge(self, dumped: dict) -> None:
        for layer, (calls, total, inner) in dumped["stats"].items():
            st = self.stats.setdefault(layer, [0, 0.0, 0.0])
            st[0] += calls
            st[1] += total
            st[2] += inner
        for name, n in dumped["counters"].items():
            self.count(name, n)

    def metrics(self) -> dict[str, tuple[float, str]]:
        c = self.counters

        def ratio(num: int, den: int) -> float:
            return num / den if den else 0.0

        derived = {
            "normalize.trial_ratio": ratio(
                c.get("normalize.moves_emitted", 0), c.get("normalize.apply_move_calls", 0)
            ),
            "orbit.new_ratio": ratio(c.get("orbit.reached", 0), c.get("orbit.successors", 0)),
            "lattice.blow_down.unit_pivot_share": ratio(
                c.get("lattice.blow_down.unit_pivot", 0),
                self.stats.get("lattice.blow_down", [0])[0],
            ),
        }
        out = {}
        for name, unit, kind, layer in METRICS:
            calls, total, inner = self.stats.get(layer, (0, 0.0, 0.0))
            if kind == "calls":
                value = calls
            elif kind == "ms":
                value = total * 1e3
            elif kind == "self_ms":
                value = (total - inner) * 1e3
            elif kind == "counter":
                value = c.get(layer, 0)
            else:
                value = derived[name]
            out[name] = (value, unit)
        return out

    def table(self) -> list[str]:
        """Per-layer calls, total and self time, busiest self time first."""
        rows = [f"{'layer':<32} {'calls':>9} {'total ms':>11} {'self ms':>11}"]
        by_self = sorted(self.stats.items(), key=lambda kv: kv[1][2] - kv[1][1])
        for layer, (calls, total, inner) in by_self:
            if layer.startswith("moves.apply_move."):
                continue  # the per-kind split repeats apply_move's time
            rows.append(f"{layer:<32} {calls:>9} {total * 1e3:>11.1f} {(total - inner) * 1e3:>11.1f}")
        return rows


def run_cli_traced(out_path: str, argv: list[str]) -> int:
    """Entry point of a traced ``surfclass`` child: run the command with the
    tracer installed and write the statistics to `out_path`."""
    from surfclass import cli

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.restore()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
