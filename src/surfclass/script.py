"""Line-oriented construction scripts for rational surfaces.

One statement per line, ``#`` starts a comment.  A script opens with a base
statement and then builds: blow up points (optionally on named lines), name
new classes by integer combinations of the current basis, blow named lines
down, run the minimal-model reduction, or snapshot a report.  Errors carry
the one-based line number so the command line can point at the offending
statement.
"""

from __future__ import annotations

import re
from types import SimpleNamespace
from typing import List, Optional, Sequence, Tuple

from .lattice import (
    BaseSurface,
    DivisorClass,
    RationalSurface,
    _blow_up,
    _contract,
    _surface,
    _working,
    euler_characteristic_cx,
    intersect,
    make_base,
)
from .minimal import ReductionReport, _reduce, _report
from .words import SurfclassError, ValidationError, _DIGITS, _NAME, _Value, _lines, _read_int


class ScriptError(SurfclassError):
    """A statement that cannot be parsed or executed; carries its line."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.bare_message = message


# a coefficient is ASCII digits, optionally followed by *; its sign is the
# term's own + or -.  No two runs of spaces meet, so a failing match gives
# back each space once: a term costs linear time even on hostile input.
_TERM = re.compile(rf"\s*(?:([+-])\s*)?(?:({_DIGITS})\s*(?:\*\s*)?)?({_NAME})\s*")


def parse_class_expr(expr: str, basis: Sequence[str]) -> DivisorClass:
    """Integer combination of basis names, e.g. ``H - E1 - E2`` or ``2S + 3F``.

    Names resolve against the lattice's ``basis`` names, not against tracked
    lines; a tracked line may have drifted away from the basis vector that
    shares its name, and expressions are meant to write raw lattice vectors.
    An expression that cannot be read raises ``ValidationError``; inside a
    script, ``run_script`` reports it with its line number.
    """
    index = {nm: i for i, nm in enumerate(basis)}
    coords = [0] * len(basis)
    pos = 0
    text = expr.strip()
    if not text:
        raise ValidationError("empty class expression")
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m:
            raise ValidationError(f"cannot read class expression at {text[pos:]!r}")
        sign_s, coeff_s, name = m.groups()
        if pos == 0 and sign_s is None:
            sign_s = "+"
        if sign_s is None:
            raise ValidationError(f"missing + or - before {name!r}")
        if name not in index:
            raise ValidationError(
                f"unknown basis name {name!r} (basis: {', '.join(basis)})"
            )
        try:
            coeff = _read_int(coeff_s) if coeff_s else 1
        except ValueError:  # past the interpreter's int-string digit limit
            raise ValidationError(
                f"coefficient of {name!r} is too long ({len(coeff_s)} digits)"
            )
        coords[index[name]] += coeff if sign_s == "+" else -coeff
        pos = m.end()
    return DivisorClass(tuple(coords))


class ScriptOutcome(_Value):
    """Everything a script run produced.

    ``events`` interleaves report snapshots and reduction reports in script
    order, tagged ``("report", str)`` or ``("reduction", ReductionReport)``.
    """

    __slots__ = ("surface", "events")

    def __init__(self, surface: RationalSurface, events: Optional[List] = None) -> None:
        object.__setattr__(self, "surface", surface)
        object.__setattr__(self, "events", [] if events is None else events)

    @property
    def reports(self) -> List[str]:
        return [payload for kind, payload in self.events if kind == "report"]

    @property
    def reductions(self) -> List[ReductionReport]:
        return [payload for kind, payload in self.events if kind == "reduction"]


def render_report(surf: RationalSurface) -> str:
    """Human-readable lattice snapshot."""
    lines = [f"base: {surf.base}  blow-ups: {surf.blowups}"]
    lines.append(f"basis: ({', '.join(surf.basis)})")
    lines.append("gram:")
    for row in surf.gram:
        lines.append("  [" + ", ".join(f"{v:d}" for v in row) + "]")
    lines.append("tracked lines:")
    for nm, cls in surf.tracked:
        sq = intersect(surf, cls, cls)
        lines.append(f"  {nm} = {cls.render(surf.basis)}  (self-intersection {sq})")
    k2 = surf.k_squared
    lines.append(f"K = {surf.canonical.render(surf.basis)}")
    lines.append(
        f"K^2 = {k2}  chi = {euler_characteristic_cx(surf)}  b2 = {surf.rank}"
    )
    return "\n".join(lines)


def render_reduction(report: ReductionReport) -> str:
    """Human-readable reduction log."""
    lines = []
    if not report.steps:
        lines.append("already minimal: nothing to contract")
    for name, cls in report.steps:
        lines.append(f"contract {name} (class at contraction: {tuple(cls.coords)})")
    lines.append(f"minimal model: {report.final}")
    return "\n".join(lines)


def _statement(
    lat: Optional[SimpleNamespace], stmt: str, events: List[Tuple[str, object]]
) -> SimpleNamespace:
    """Run one statement on the working lattice ``lat``, in place, and
    return it (a ``base`` statement returns a new one); a statement that
    cannot be read or run raises ``ValidationError``."""
    words = stmt.split()
    head = words[0].lower()
    if head == "base":
        if lat is not None:
            raise ValidationError("base is already set")
        if len(words) == 2 and words[1].lower() == "cp2":
            return _working(make_base(BaseSurface.cp2()))
        if len(words) == 3 and words[1].lower() == "hirzebruch":
            # a negative index is read, to reach the base surface's check
            try:
                n = _read_int(words[2])
            except ValueError:
                raise ValidationError(f"bad Hirzebruch index {words[2]!r}")
            return _working(make_base(BaseSurface.hirzebruch(n)))
        raise ValidationError("expected 'base cp2' or 'base hirzebruch <n>'")
    if lat is None:
        raise ValidationError("script must start with a base statement")
    if head == "blowup":
        through = []
        if len(words) > 1:
            if words[1].lower() != "on":
                raise ValidationError("expected 'blowup' or 'blowup on <line> ...'")
            through = words[2:]
            if not through:
                raise ValidationError("'blowup on' needs at least one line name")
        _blow_up(lat, through)
    elif head == "line":
        m = re.match(rf"^line\s+({_NAME})\s*=\s*(.+)$", stmt, re.IGNORECASE)
        if not m:
            raise ValidationError("expected 'line <name> = <class expr>'")
        name, expr = m.group(1), m.group(2)
        if name in lat.tracked:
            raise ValidationError(f"line name {name!r} is already tracked")
        lat.tracked[name] = list(parse_class_expr(expr, lat.names).coords)
    elif head == "blowdown":
        if len(words) != 2:
            raise ValidationError("expected 'blowdown <name>'")
        _contract(lat, words[1])
    elif head == "minimal-model":
        if len(words) != 1:
            raise ValidationError("'minimal-model' takes no arguments")
        events.append(("reduction", _report(_reduce(lat), _surface(lat))))
    elif head == "report":
        if len(words) != 1:
            raise ValidationError("'report' takes no arguments")
        events.append(("report", render_report(_surface(lat))))
    else:
        raise ValidationError(f"unknown statement {head!r}")
    return lat


def run_script(text: str) -> ScriptOutcome:
    """Execute a script and return its outcome.

    Every statement after ``base`` changes one working lattice
    (``lattice._working``) in place, ``minimal-model`` included, and a
    surface is built only for each ``report``, for each reduction's report,
    and once for the outcome.  A statement or lattice error, a
    ``ValidationError``, becomes a ``ScriptError`` on its statement's line.
    """
    lat: Optional[SimpleNamespace] = None
    events: List[Tuple[str, object]] = []
    for line_no, stmt in _lines(text):
        try:
            lat = _statement(lat, stmt, events)
        except ValidationError as e:
            raise ScriptError(str(e), line_no)
    if lat is None:
        raise ScriptError("script is empty", max(1, len(text.splitlines())))
    return ScriptOutcome(_surface(lat), events)
