"""Seeded input generators, one per workload.

The seed drives content only.  Sizes come from fixed strata and every
stratum gets the same number of inputs, in round-robin order, so two seeds
give comparable numbers.  Generators use ``random.Random(seed)`` and the
oracle, never surfclass, except where an input is itself a surfclass
output (the move traces the ``cli`` workload replays).
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from string import ascii_lowercase

import oracle

# symbol names a..z, a1..z1, ...: enough for the largest stratum
POOL = [c + s for s in ("", "1", "2", "3") for c in ascii_lowercase]


def random_word(rng: random.Random, pairs: int, orientable: bool) -> list[tuple[str, int]]:
    """A closed word on `pairs` random symbols; orientable means every pair
    carries opposite exponents."""
    seq = rng.sample(POOL, pairs) * 2
    rng.shuffle(seq)
    first: dict[str, int] = {}
    letters = []
    for s in seq:
        if s in first:
            e = -first[s] if orientable else rng.choice((1, -1))
        else:
            e = first[s] = rng.choice((1, -1))
        letters.append((s, e))
    return letters


def render(letters) -> str:
    return " ".join(s + ("'" if e < 0 else "") for s, e in letters)


def polygon_file(rng: random.Random, letters, pieces: int) -> str:
    """The word cut along fresh diagonals into a fan of `pieces` polygons."""
    cuts = sorted(rng.sample(range(1, len(letters)), pieces - 1))
    arcs = [letters[a:b] for a, b in zip([0] + cuts, cuts + [len(letters)])]
    lines = ["# one polygon per line"]
    for k, arc in enumerate(arcs):
        poly = list(arc)
        if k > 0:
            poly.insert(0, (f"cut{k}", -1))
        if k < pieces - 1:
            poly.append((f"cut{k + 1}", 1))
        lines.append(render(poly))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# edgeword-long

PAIR_STRATA = (16, 40, 80)
WORDS_PER_STRATUM = 40  # one pass over all inputs fits in a 30 s run
FORMS = ("text", "sum", "polygon")


@dataclass(frozen=True)
class WordInput:
    stratum: int  # pairs
    form: str  # text | sum | polygon
    orientable: bool  # every pair has opposite exponents
    text: str  # word text, or polygon-file text
    right: str  # second summand for form "sum"
    expected: tuple  # oracle type of the surface the input presents
    vertices: int  # vertex classes of the generated word


def edgeword_inputs(seed: int) -> list[WordInput]:
    rng = random.Random(seed)
    out = []
    for k in range(WORDS_PER_STRATUM):
        orientable = k % 2 == 0
        form = FORMS[(k // 2) % 3]
        for pairs in PAIR_STRATA:
            right = ""
            if form == "sum":
                left_l = random_word(rng, pairs // 2, orientable)
                right_l = random_word(rng, pairs - pairs // 2, orientable)
                text, right = render(left_l), render(right_l)
                expected = oracle.sum_type(oracle.word_type(left_l), oracle.word_type(right_l))
                vertices = oracle.trace_corners(left_l)[0] + oracle.trace_corners(right_l)[0] - 1
            else:
                letters = random_word(rng, pairs, orientable)
                expected = oracle.word_type(letters)
                vertices = oracle.trace_corners(letters)[0]
                if form == "text":
                    text = render(letters)
                else:
                    text = polygon_file(rng, letters, rng.randint(2, 5))
            out.append(WordInput(pairs, form, orientable, text, right, expected, vertices))
    return out


# ---------------------------------------------------------------------------
# census-3

CENSUS_SYMBOLS = ("a", "b", "c")


@dataclass(frozen=True)
class CensusInput:
    stratum: str
    picks: tuple  # per type, in sorted-type order: where to pick the extra start


def census_inputs(seed: int) -> list[CensusInput]:
    """One census job, run on every pass, so its time is the median over
    several runs of the same work."""
    rng = random.Random(seed)
    return [CensusInput("census", tuple(rng.random() for _ in range(8)))]


# ---------------------------------------------------------------------------
# lattice-scripts

BLOWUP_STRATA = (8, 16, 24)
SCRIPTS_PER_STRATUM = 12  # about three passes in a 30 s run
BASES = ("cp2", "hirzebruch 0", "hirzebruch 1", "hirzebruch 2", "hirzebruch 3")
# plain blow-ups over these bases must reduce back to them
RECOVERABLE = {"cp2": "CP2", "hirzebruch 2": "Hirzebruch(2)", "hirzebruch 3": "Hirzebruch(3)"}


@dataclass(frozen=True)
class ScriptInput:
    stratum: int  # blow-ups
    base: str
    text: str
    on_lines: int  # blow-ups placed on tracked lines
    blowdowns: int  # explicit blowdown statements
    plain: bool  # blow-ups only, so the base must be recovered when recoverable


def script_inputs(seed: int) -> list[ScriptInput]:
    rng = random.Random(seed)
    out = []
    for k in range(SCRIPTS_PER_STRATUM):
        base = BASES[k % len(BASES)]
        plain = k % 2 == 1  # every base has plain scripts and others
        for n in BLOWUP_STRATA:
            lines = [f"base {base}"]
            names = ["H"] if base == "cp2" else ["S", "F"]
            on = 0
            for e in range(1, n + 1):
                if not plain and rng.random() < 0.6:
                    lines.append("blowup on " + " ".join(rng.sample(names, min(len(names), rng.choice((1, 1, 2))))))
                    on += 1
                else:
                    lines.append("blowup")
                names.append(f"E{e}")
            blowdowns = 0
            if base == "cp2" and not plain and (k // len(BASES)) % 2 == 0:
                lines += ["line L = H - E1 - E2", "blowdown L"]
                blowdowns = 1
            lines += ["minimal-model", "report"]
            out.append(ScriptInput(n, base, "\n".join(lines) + "\n", on, blowdowns, plain))
    return out


# ---------------------------------------------------------------------------
# cli

# README examples with the exact text the README shows for them
README_TWO_POINTS = "base cp2\nblowup\nblowup\nline L = H - E1 - E2\nblowdown L\nreport\n"
README_GOLDEN = {
    "classify-torus": "word: a b a' b'\ntype: orientable genus 1 (torus), χ=0\n"
    "canonical: a1 b1 a1' b1'\n",
    "classify-klein-json": '{"type": "NonOrientable(2)", "genus": 0, "crosscaps": 2, '
    '"euler": 0, "canonical": "a1 a1 a2 a2"}\n',
    "normalize-klein-trace": "# initial: a a b b\n"
    "# type: non-orientable, 2 cross-caps (Klein bottle), χ=0\n"
    "# canonical: a1 a1 a2 a2\n# moves: 5\n",
    "replay-klein": "initial: a a b b\nfinal: a1 a1 a2 a2\n"
    "type: non-orientable, 2 cross-caps (Klein bottle), χ=0\nmoves: 5\n",
    "glue-torus": "polygons: 2\nword: b c b' c'\ntype: orientable genus 1 (torus), χ=0\n"
    "canonical: a1 b1 a1' b1'\n",
    "rational-two-points": "base: CP2  blow-ups: 1\nbasis: (B1, B2)\ngram:\n  [0, 1]\n"
    "  [1, 0]\ntracked lines:\n  H = B1 + B2  (self-intersection 2)\n"
    "  E1 = B2  (self-intersection 0)\n  E2 = B1  (self-intersection 0)\n"
    "K = -2B1 - 2B2\nK^2 = 8  chi = 4  b2 = 2\n",
}

COMMANDS = ("classify", "normalize", "replay", "sum", "glue", "rational")
MALFORMED = ("classify", "normalize", "replay", "glue", "rational")
CLI_BLOCKS = 6  # 90 inputs, about three passes in a 30 s run


@dataclass(frozen=True)
class CliInput:
    stratum: str  # command name, or "malformed"
    args: tuple  # argv after ``surfclass``
    expect_code: int
    golden: str  # exact expected stdout (a prefix for normalize --trace), or ""
    expected: tuple | None  # oracle type for word commands


def cli_inputs(seed: int, workdir, normalize_trace) -> list[CliInput]:
    """Blocks of 12 well-formed runs (every command, with and without
    ``--json``), one README example and two malformed inputs.

    `normalize_trace(text)` returns a replayable trace document for a word;
    input files are written under `workdir`.
    """
    rng = random.Random(seed)
    counter = itertools.count()

    def write(suffix: str, text: str) -> str:
        path = workdir / f"in{next(counter)}.{suffix}"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def small_word(lo: int = 2, hi: int = 6):
        return random_word(rng, rng.randint(lo, hi), rng.random() < 0.5)

    klein_trace = write("txt", normalize_trace("a a b b"))
    readme = [
        CliInput("classify", ("classify", "a b a' b'"), 0, README_GOLDEN["classify-torus"], None),
        CliInput("classify", ("classify", "a a b b", "--json"), 0,
                 README_GOLDEN["classify-klein-json"], None),
        CliInput("normalize", ("normalize", "a a b b", "--trace"), 0,
                 README_GOLDEN["normalize-klein-trace"], None),
        CliInput("replay", ("replay", "a a b b", klein_trace), 0, README_GOLDEN["replay-klein"], None),
        CliInput("glue", ("glue", write("poly", "a b c\na' b' c'\n")), 0,
                 README_GOLDEN["glue-torus"], None),
        CliInput("rational", ("rational", write("srf", README_TWO_POINTS)), 0,
                 README_GOLDEN["rational-two-points"], None),
    ]

    def well_formed(command: str, as_json: bool) -> CliInput:
        flag = ("--json",) if as_json else ()
        if command == "sum":
            a, b = small_word(1, 3), small_word(1, 3)
            t = oracle.sum_type(oracle.word_type(a), oracle.word_type(b))
            return CliInput(command, ("sum", render(a), render(b)) + flag, 0, "", t)
        if command == "rational":
            base = rng.choice(BASES)
            lines = [f"base {base}"] + ["blowup"] * rng.randint(1, 4)
            if rng.random() < 0.5:
                lines.append("minimal-model")
            lines.append("report")
            path = write("srf", "\n".join(lines) + "\n")
            return CliInput(command, ("rational", path) + flag, 0, "", None)
        w = small_word()
        t = oracle.word_type(w)
        if command == "glue":
            path = write("poly", polygon_file(rng, w, rng.randint(2, 3)))
            return CliInput(command, ("glue", path) + flag, 0, "", t)
        if command == "replay":
            path = write("txt", normalize_trace(render(w)))
            return CliInput(command, ("replay", render(w), path) + flag, 0, "", t)
        extra = ("--trace",) if command == "normalize" else ()
        return CliInput(command, (command, render(w)) + extra + flag, 0, "", t)

    def malformed(command: str) -> CliInput:
        w = small_word()
        if command == "classify":  # a character outside the word syntax
            args = ("classify", render(w) + " $")
        elif command == "normalize":  # one side without its partner
            args = ("normalize", render(w[:-1]))
        elif command == "replay":  # a move the trace grammar does not have
            args = ("replay", render(w), write("txt", "rotate 1\ntwist 2\n"))
        elif command == "glue":  # a symbol used three times across polygons
            args = ("glue", write("poly", render(w) + "\n" + render(w[:1]) + "\n"))
        else:  # a base the script language does not know
            args = ("rational", write("srf", "base cp3\nblowup\nreport\n"))
        return CliInput("malformed", args, 1, "", None)

    out = []
    for b in range(CLI_BLOCKS):
        for k, command in enumerate(COMMANDS):
            out.append(well_formed(command, as_json=(k + b) % 2 == 1))
            out.append(well_formed(command, as_json=(k + b) % 2 == 0))
        out.append(readme[b % len(readme)])
        out.append(malformed(MALFORMED[(2 * b) % len(MALFORMED)]))
        out.append(malformed(MALFORMED[(2 * b + 1) % len(MALFORMED)]))
    return out
