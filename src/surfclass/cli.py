"""Command-line front end.

Subcommands cover both halves of the package: ``classify``, ``normalize``,
``sum``, ``glue``, and ``replay`` operate on polygon edge-words, while
``rational`` executes a construction script against the lattice calculus.
Every subcommand accepts ``--json`` for machine-readable output carrying the
same numbers as the human report.  Each ``cmd_*`` function returns both, its
``--json`` object and the lines of its text report, and ``main`` prints the
one asked for.

Exit codes: 0 on success, 1 for bad input (syntax, validation, script
errors, unreadable or non-UTF-8 files), 2 for an internal invariant
violation or a trace whose replay produces an invalid intermediate, which
indicates a bug rather than a user mistake.  A malformed command line (no
subcommand, an unknown one, a missing argument) also exits 2, from
argparse, with a usage message on standard error; ``--help`` exits 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .lattice import euler_characteristic_cx
from .moves import MoveTrace, ReplayError, parse_trace, replay
from .normalize import normalize
from .script import render_reduction, render_report, run_script
from .sums import connected_sum_words
from .words import (
    InternalInvariantError,
    SurfaceType,
    SurfclassError,
    Word,
    canonical_word,
    classify_by_invariants,
    complex_euler,
    complex_is_orientable,
    glue_polygons,
    parse_polygon_file,
    parse_word,
    validate,
)


def _read_file(path: str) -> str:
    """Text of a UTF-8 file; a path ``open`` refuses as a value (an embedded
    NUL byte) raises OSError, as an unopenable file does."""
    try:
        fh = open(path, encoding="utf-8")
    except ValueError as exc:
        raise OSError(f"{exc}: {path!r}") from None
    with fh:
        return fh.read()


def _type_payload(t: SurfaceType, trace: Optional[MoveTrace] = None) -> dict:
    """The ``--json`` object of the edge-word commands: the type's numbers,
    its canonical word and, when given, the rendered moves of a trace."""
    payload = {
        "type": str(t),
        "genus": t.genus if t.orientable else 0,
        "crosscaps": 0 if t.orientable else t.genus,
        "euler": t.euler,
        "canonical": canonical_word(t).render(),
    }
    if trace is not None:
        payload["trace"] = [m.render() for m in trace.steps]
    return payload


def _word_report(word: Word, t: SurfaceType) -> list[str]:
    return [
        f"word: {word.render()}",
        f"type: {t.describe()}",
        f"canonical: {canonical_word(t).render()}",
    ]


def cmd_classify(args) -> tuple[dict, list[str]]:
    word = parse_word(args.word)
    t = classify_by_invariants(word)
    return _type_payload(t), _word_report(word, t)


def cmd_normalize(args) -> tuple[dict, list[str]]:
    word = parse_word(args.word)
    result = normalize(word)
    t = result.type
    moves = len(result.trace.steps)
    if not args.trace:
        return _type_payload(t), _word_report(word, t) + [f"moves: {moves}"]
    # a replayable document: comments carry the summary, the rest is one
    # move per line in the trace grammar
    lines = [
        f"# initial: {word.render()}",
        f"# type: {t.describe()}",
        f"# canonical: {canonical_word(t).render()}",
        f"# moves: {moves}",
    ]
    return _type_payload(t, result.trace), lines + [m.render() for m in result.trace.steps]


def cmd_sum(args) -> tuple[dict, list[str]]:
    total = connected_sum_words(parse_word(args.word1), parse_word(args.word2))
    t = normalize(total).type
    return _type_payload(t), _word_report(total, t)


def cmd_glue(args) -> tuple[dict, list[str]]:
    polys = parse_polygon_file(_read_file(args.file))
    merged = glue_polygons(polys)
    t = normalize(merged).type
    # gluing keeps the surface: the merged word's χ and orientability are the
    # complex's, read off the polygons before any merging
    chi, orientable = complex_euler(polys), complex_is_orientable(polys)
    if (t.euler, t.orientable) != (chi, orientable):
        raise InternalInvariantError(
            f"glued word {merged.render()} is {t}, but its polygons give"
            f" χ={chi}, {'orientable' if orientable else 'non-orientable'}"
        )
    return _type_payload(t), [f"polygons: {len(polys.polygons)}"] + _word_report(merged, t)


def cmd_replay(args) -> tuple[dict, list[str]]:
    # an invalid word is bad input; replay's own ReplayError would call it a bug
    word = validate(parse_word(args.word))
    trace = parse_trace(_read_file(args.tracefile), word)
    final = replay(trace)
    t = classify_by_invariants(final)
    return _type_payload(t, trace), [
        f"initial: {word.render()}",
        f"final: {final.render()}",
        f"type: {t.describe()}",
        f"moves: {len(trace.steps)}",
    ]


def cmd_rational(args) -> tuple[dict, list[str]]:
    outcome = run_script(_read_file(args.file))
    surf = outcome.surface
    payload = {
        "lattice": {
            "basis": list(surf.basis),
            "gram": [list(row) for row in surf.gram],
            "canonical": list(surf.canonical.coords),
            "tracked": {nm: list(cls.coords) for nm, cls in surf.tracked},
        },
        "k_squared": surf.k_squared,
        "b2": surf.rank,
        "euler": euler_characteristic_cx(surf),
    }
    if outcome.reductions:
        last = outcome.reductions[-1]
        payload["minimal"] = str(last.final)
        payload["steps"] = [{"line": nm, "class": list(cls.coords)} for nm, cls in last.steps]
    blocks = [
        text if kind == "report" else render_reduction(text)
        for kind, text in outcome.events
    ] or [render_report(surf)]
    return payload, ["\n\n".join(blocks)]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surfclass",
        description="Classify closed surfaces from polygon edge-words and "
        "reduce rational complex surfaces to minimal models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify an edge-word by its invariants")
    p.add_argument("word", help="edge-word, e.g. \"a b a' b'\" or compact aba'b'")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("normalize", help="rewrite an edge-word to canonical form")
    p.add_argument("word")
    p.add_argument("--trace", action="store_true", help="emit the move trace")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("sum", help="connected sum of two edge-words")
    p.add_argument("word1")
    p.add_argument("word2")
    p.set_defaults(func=cmd_sum)

    p = sub.add_parser("glue", help="merge a polygon-set file and classify it")
    p.add_argument("file", help="one polygon word per line, # comments")
    p.set_defaults(func=cmd_glue)

    p = sub.add_parser("replay", help="replay a move trace against a word")
    p.add_argument("word")
    p.add_argument("tracefile", help="one move per line, # comments")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("rational", help="run a rational-surface script")
    p.add_argument("file")
    p.set_defaults(func=cmd_rational)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, lines = args.func(args)
    except (ReplayError, InternalInvariantError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (SurfclassError, OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(payload) if args.json else "\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
