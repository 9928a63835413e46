"""One sha256 over the command line's output on a seeded corpus: the argv,
exit code, stdout and stderr of in-process ``main`` runs.  Any changed byte
of CLI text or JSON changes the digest, so a change that means to alter the
output has to declare it and pin the new digest."""

import hashlib
import io
import itertools
import random
from contextlib import redirect_stderr, redirect_stdout

from surfclass.cli import main

SYMBOLS = "abcdefgh"
BASES = ["cp2", "hirzebruch 0", "hirzebruch 1", "hirzebruch 2", "hirzebruch 3"]
# the two scripts whose minimal model needs a rational section to be named
SECTION_SCRIPTS = [
    "base hirzebruch 0\nline A = S - F\nminimal-model\n",
    "base hirzebruch 1\nblowup on S\nblowup on F E1\nminimal-model\n",
]
DIGEST = "9c90b120b38b7dd02c2bb12264a7bd7b35101f0b8c03fb8e95d99430aed97c36"


def _word(rng, pairs, orientable):
    seq = rng.sample(SYMBOLS, pairs) * 2
    rng.shuffle(seq)
    first = {}
    letters = []
    for s in seq:
        if s in first:
            e = -first[s] if orientable else rng.choice((1, -1))
        else:
            e = first[s] = rng.choice((1, -1))
        letters.append((s, e))
    return letters


def _render(letters):
    return " ".join(s + ("'" if e < 0 else "") for s, e in letters)


def _polygons(rng, letters):
    """The word cut along fresh diagonals into a fan of two or three
    polygons, one per line."""
    pieces = min(len(letters), rng.randint(2, 3))
    cuts = sorted(rng.sample(range(1, len(letters)), pieces - 1))
    arcs = [letters[a:b] for a, b in zip([0] + cuts, cuts + [len(letters)])]
    lines = []
    for k, arc in enumerate(arcs):
        poly = list(arc)
        if k > 0:
            poly.insert(0, (f"d{k}", -1))
        if k < pieces - 1:
            poly.append((f"d{k + 1}", 1))
        lines.append(_render(poly))
    return "# one polygon per line\n" + "\n".join(lines) + "\n"


def _script(rng):
    """A random construction script; some statements fail, on purpose."""
    base = rng.choice(BASES)
    names = ["H"] if base == "cp2" else ["S", "F"]
    blowups = 0
    lines = [f"base {base}"]
    for step in range(rng.randint(1, 8)):
        roll = rng.random()
        if roll < 0.6:
            through = rng.sample(names, min(len(names), rng.randint(0, 2))) if roll > 0.3 else []
            lines.append(" ".join(["blowup", "on"] + through if through else ["blowup"]))
            blowups += 1
            names.append(f"E{blowups}")
        elif roll < 0.75:
            terms = rng.sample(names, min(len(names), rng.randint(1, 3)))
            expr = " ".join(f"{rng.choice('+-')} {rng.randint(1, 2)}{nm}" for nm in terms)
            lines.append(f"line L{step} = {expr.lstrip('+ ')}")
        elif roll < 0.85 and names[-1].startswith("E"):
            lines.append(f"blowdown {names.pop()}")
        else:
            lines.append(rng.choice(["minimal-model", "report"]))
    if rng.random() < 0.5:
        lines.append("minimal-model")
    return "\n".join(lines) + "\n"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_runs(tmp):
    """(argv, exit code, stdout, stderr) of every corpus run, with the
    directory `tmp` that holds the input files written as ``TMP``."""
    rng = random.Random(17)
    files = itertools.count()

    def write(data):
        path = tmp / f"in{next(files)}"
        path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
        return str(path)

    def mask(text):
        return text.replace(str(tmp), "TMP")

    argvs = []
    for k in range(30):
        w = _word(rng, rng.randint(1, 6), k % 2 == 0)
        v = _render(_word(rng, rng.randint(1, 3), rng.random() < 0.5))
        trace = write(_run(["normalize", _render(w), "--trace"])[1])
        polys = write(_polygons(rng, w)) if len(w) > 2 else write("a b\na' b'\n")
        w = _render(w)
        for flag in ([], ["--json"]):
            argvs += [
                ["classify", w, *flag],
                ["normalize", w, *flag],
                ["normalize", w, "--trace", *flag],
                ["sum", w, v, *flag],
                ["replay", w, trace, *flag],
                ["glue", polys, *flag],
            ]
    for text in [_script(rng) for _ in range(40)] + SECTION_SCRIPTS:
        path = write(text)
        argvs += [["rational", path], ["rational", path, "--json"]]
    missing = str(tmp / "missing")
    argvs += [
        ["glue", missing],
        ["rational", missing],
        ["replay", "a a'", missing],
        ["classify", "a b"],
        ["normalize", "a ? a"],
        ["sum", "a a", ""],
        ["rational", write("base cp2\nfrobnicate\n")],
        ["rational", write("base cp2\nline L = H + Q\n")],
        # a one-line file: "error: line 1: script is empty"
        ["rational", write("# nothing but a comment\n")],
        ["replay", "a a'", write("rotate x\n")],
        ["replay", "a a'", write("warp 1\n")],
        ["replay", "a a'", write("rename q r\n")],
        ["glue", write(b"a b\n# caf\xe9\na' b'\n")],
        ["glue", write("a b\nc c\n")],
    ]
    runs = []
    for argv in argvs:
        code, out, err = _run(argv)
        runs.append(([mask(arg) for arg in argv], code, mask(out), mask(err)))
    return runs


def test_cli_output_digest(tmp_path):
    runs = cli_runs(tmp_path)
    assert len(runs) == 458
    assert {code for _, code, _, _ in runs} == {0, 1, 2}
    digest = hashlib.sha256()
    for run in runs:
        digest.update(repr(run).encode("utf-8") + b"\n")
    assert digest.hexdigest() == DIGEST
