"""Partite presentations: data model, validation, conversions and the
line-oriented text format.

A presentation consists of an ordered class set, an alphabet of free and
involutive generators, a class action (one permutation of the classes per
generator) and one relator list per class.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DslSyntaxError, EmptyS2, SemanticError, WordSyntaxError
from .words import (Alphabet, ClassAction, Word, apply_action, parse_word,
                    parse_words)


@dataclass(frozen=True)
class Violation:
    code: str
    witness: object
    detail: str

    def __str__(self):
        return f"{self.code}: {self.detail}"


class PartitePresentation:

    def __init__(self, classes, alphabet, action, relators):
        self.classes = tuple(classes)
        self.alphabet = alphabet
        self.action = action
        self.relators = {x: tuple(relators.get(x, ())) for x in self.classes}

    def all_relators(self):
        for x in self.classes:
            for r in self.relators[x]:
                yield x, r

    def degree(self):
        return 2 * len(self.alphabet.u_gens) + len(self.alphabet.i_gens)

    def __eq__(self, other):
        return (isinstance(other, PartitePresentation)
                and set(self.classes) == set(other.classes)
                and set(self.alphabet.u_gens) == set(other.alphabet.u_gens)
                and set(self.alphabet.i_gens) == set(other.alphabet.i_gens)
                and all(self.action.table(n) == other.action.table(n)
                        for n in self.alphabet.names)
                and all(set(map(str, self.relators[x]))
                        == set(map(str, other.relators[x])) for x in self.classes))

    def __repr__(self):
        return (f"PartitePresentation(classes={list(self.classes)}, "
                f"u={list(self.alphabet.u_gens)}, i={list(self.alphabet.i_gens)})")


@dataclass
class TwoPartitePresentation:
    """Two vertex classes; s1 stays inside a class, u2/i2 swap the classes."""
    s1: tuple
    u2: tuple
    i2: tuple
    r0: tuple
    r1: tuple

    def alphabet(self):
        return Alphabet(tuple(self.s1) + tuple(self.u2), tuple(self.i2))

    def swap_count(self, word):
        swap = set(self.u2) | set(self.i2)
        return sum(1 for c in word.letters if word.alphabet.name_of(c) in swap)


def validate(p):
    """List of invariant violations; empty means valid."""
    out = []
    if not p.action.is_transitive():
        out.append(Violation("NotTransitive", None,
                             "the generators do not act transitively on the classes"))
    for name in p.alphabet.i_gens:
        if not p.action.is_fixed_point_free_involution(name):
            out.append(Violation("FixedPointInvolution", name,
                                 f"involutive generator {name!r} must act as a "
                                 f"fixed-point-free involution of the classes"))
    for x, r in p.all_relators():
        if len(r) == 0:
            out.append(Violation("EmptyRelator", (x, r),
                                 f"empty relator attached to class {x!r}"))
            continue
        end = apply_action(p.action, r, x)
        if end != x:
            out.append(Violation("RelatorNotClosed", (x, r),
                                 f"relator {r} does not stabilise class {x!r} "
                                 f"(ends at {end!r})"))
    return out


def from_two_partite(tp):
    """Expand a two-class presentation into the general form on X = {0, 1}."""
    if not tp.u2 and not tp.i2:
        raise EmptyS2("no class-swapping generators: the action cannot be "
                      "transitive on two classes")
    classes = ("0", "1")
    alphabet = tp.alphabet()
    images = {}
    for name in tp.s1:
        images[name] = {"0": "0", "1": "1"}
    for name in tuple(tp.u2) + tuple(tp.i2):
        images[name] = {"0": "1", "1": "0"}
    action = ClassAction(alphabet, classes, images)

    def rebuild(words):
        return tuple(Word(alphabet, w.letters if isinstance(w, Word) else w)
                     for w in words)

    return PartitePresentation(classes, alphabet, action,
                               {"0": rebuild(tp.r0), "1": rebuild(tp.r1)})


def two_partite(s1, u2, i2, r0, r1):
    """Convenience constructor parsing relator literals."""
    tp = TwoPartitePresentation(tuple(s1), tuple(u2), tuple(i2), (), ())
    alphabet = tp.alphabet()

    def conv(ws):
        return tuple(w if isinstance(w, Word) else parse_word(w, alphabet)
                     for w in ws)

    tp.r0 = conv(r0)
    tp.r1 = conv(r1)
    return tp


# ---------------------------------------------------------------------------
# Text format.  Line oriented, '#' comments:
#
#   classes: 0 1
#   gen a : U : (0)(1)
#   gen b : I : (0 1)
#   rel 0 : a^5, a b a^2 b
#   rel 1 : a^5


def _parse_cycles(text, classes, class_set, line_no):
    """Cycle notation over class names; omitted classes are fixed points.
    ``class_set`` is ``set(classes)``."""
    table = {x: x for x in classes}
    moved = set()
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch != "(":
            raise DslSyntaxError("expected '(' in cycle notation", line_no, i + 1)
        j = text.find(")", i)
        if j < 0:
            raise DslSyntaxError("unclosed cycle", line_no, i + 1)
        entries = text[i + 1:j].replace(",", " ").split()
        for x in entries:
            if x not in class_set:
                raise SemanticError(f"unknown class {x!r} in cycle notation", line_no)
            if x in moved:
                raise SemanticError(f"class {x!r} appears twice in cycle notation",
                                    line_no)
            moved.add(x)
        for k, x in enumerate(entries):
            table[x] = entries[(k + 1) % len(entries)]
        i = j + 1
    return table


def parse(text):
    """Parse presentation text; raises DslSyntaxError / SemanticError."""
    classes = None
    gens = []            # (name, kind, image table, line)
    rels = []            # (class, [words as text], line)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("classes:"):
            if classes is not None:
                raise DslSyntaxError("duplicate classes line", line_no)
            classes = tuple(stripped[len("classes:"):].split())
            class_set = set(classes)
            if not classes:
                raise DslSyntaxError("empty class list", line_no)
            if len(class_set) != len(classes):
                raise SemanticError("duplicate class name", line_no)
        elif stripped.startswith("gen "):
            if classes is None:
                raise DslSyntaxError("classes must be declared before generators",
                                     line_no)
            parts = [p.strip() for p in stripped[4:].split(":", 2)]
            if len(parts) != 3:
                raise DslSyntaxError("expected 'gen NAME : U|I : CYCLES'", line_no)
            name, kind, cycles = parts
            if not name or not all(c.isalnum() or c == "_" for c in name):
                raise DslSyntaxError(f"bad generator name {name!r}", line_no)
            if kind not in ("U", "I"):
                raise DslSyntaxError(f"generator kind must be U or I, got {kind!r}",
                                     line_no)
            if any(g[0] == name for g in gens):
                raise SemanticError(f"duplicate generator {name!r}", line_no)
            table = _parse_cycles(cycles, classes, class_set, line_no)
            gens.append((name, kind, table, line_no))
        elif stripped.startswith("rel "):
            if classes is None:
                raise DslSyntaxError("classes must be declared before relators",
                                     line_no)
            body = stripped[4:]
            if ":" not in body:
                raise DslSyntaxError("expected 'rel CLASS : word, word'", line_no)
            cname, words = body.split(":", 1)
            cname = cname.strip()
            if cname not in class_set:
                raise SemanticError(f"unknown class {cname!r}", line_no)
            texts = [w.strip() for w in words.split(",") if w.strip()]
            rels.append((cname, texts, line_no))
        else:
            raise DslSyntaxError(f"unrecognised line {stripped!r}", line_no)

    if classes is None:
        raise DslSyntaxError("missing classes line", 1)
    u_gens = tuple(name for name, kind, _, _ in gens if kind == "U")
    i_gens = tuple(name for name, kind, _, _ in gens if kind == "I")
    alphabet = Alphabet(u_gens, i_gens)
    images = {name: table for name, _, table, _ in gens}
    try:
        action = ClassAction(alphabet, classes, images)
    except ValueError as exc:
        raise SemanticError(str(exc)) from None

    relators = {x: [] for x in classes}
    source_map = {"gen": {name: line for name, _, _, line in gens}, "rel": {}}
    # One token table serves every relator of the text.
    literals = [(cname, t, line_no) for cname, texts, line_no in rels for t in texts]
    parsed = parse_words([t for _, t, _ in literals], alphabet)
    for cname, t, line_no in literals:
        try:
            w = next(parsed)
        except WordSyntaxError as exc:
            raise DslSyntaxError(f"bad word {t!r}: {exc}", line_no) from None
        relators[cname].append(w)
        source_map["rel"][(cname, w.letters)] = line_no

    p = PartitePresentation(classes, alphabet, action, relators)
    violations = validate(p)
    if violations:
        line = None
        for v in violations:
            if v.code == "FixedPointInvolution":
                line = source_map["gen"].get(v.witness)
            elif v.code in ("RelatorNotClosed", "EmptyRelator"):
                x, r = v.witness
                line = source_map["rel"].get((x, r.letters))
            if line is not None:
                break
        raise SemanticError("; ".join(str(v) for v in violations), line)
    return p


def serialize(p):
    """Canonical text: classes and generators in declaration order, relators
    in input order.  Stable byte-for-byte for a fixed presentation."""
    lines = ["classes: " + " ".join(p.classes)]

    def cycles(table):
        seen, parts = set(), []
        for x in p.classes:
            if x in seen:
                continue
            cyc = [x]
            seen.add(x)
            y = table[x]
            while y != x:
                cyc.append(y)
                seen.add(y)
                y = table[y]
            parts.append("(" + " ".join(cyc) + ")")
        return "".join(parts)

    for name in p.alphabet.names:
        kind = "I" if name in p.alphabet.i_gens else "U"
        lines.append(f"gen {name} : {kind} : {cycles(p.action.table(name))}")
    for x in p.classes:
        if p.relators[x]:
            lines.append(f"rel {x} : " + ", ".join(str(r) for r in p.relators[x]))
    return "\n".join(lines) + "\n"
