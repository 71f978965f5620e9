"""Partite presentations: data model, validation, conversions and the
line-oriented text format.

A presentation consists of an ordered class set, an alphabet of free and
involutive generators, a class action (one permutation of the classes per
generator) and one relator list per class.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice, repeat

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
    image = p.action._image
    for x in p.classes:
        for r in p.relators[x]:
            if not r.letters:
                out.append(Violation("EmptyRelator", (x, r),
                                     f"empty relator attached to class {x!r}"))
                continue
            end = x
            try:        # the walk of apply_action, without a call per relator
                for code in r.letters:
                    end = image[code][end]
            except KeyError:
                end = apply_action(p.action, r, x)      # raises UnknownClass
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
#
# ``parse`` strips every line once and sorts the lines by their prefix: the
# classes line first, then generator and relator lines in any order.  It
# reads a generator's cycle notation by splitting it at each ')', and every
# relator of the text through one token table.  When a line is malformed,
# ``_raise_line_error`` walks the lines in order and raises the first error
# with its line (and column); that walk builds nothing, so the bulk pass is
# the only reader.  A malformed word, or a presentation that ``validate``
# rejects, is reported by the bulk pass itself, at the line of the literal
# or generator concerned.


def parse(text):
    """Parse presentation text; raises DslSyntaxError / SemanticError."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    read = _read_lines(list(map(str.strip, lines)))
    if read is None:
        _raise_line_error(text)
    classes, gens, rels = read
    u_gens = tuple(name for name, kind, _, _ in gens if kind == "U")
    i_gens = tuple(name for name, kind, _, _ in gens if kind == "I")
    alphabet = Alphabet(u_gens, i_gens)
    try:
        action = ClassAction(alphabet, classes,
                             {name: table for name, _, table, _ in gens})
    except ValueError as exc:
        raise SemanticError(str(exc)) from None

    try:
        words = list(parse_words(chain.from_iterable(texts for _, texts, _ in rels),
                                 alphabet))
    except WordSyntaxError:
        _raise_word_error(rels, alphabet)
    relators, parsed = {}, iter(words)
    for cname, texts, _ in rels:
        relators.setdefault(cname, []).extend(islice(parsed, len(texts)))

    p = PartitePresentation(classes, alphabet, action, relators)
    violations = validate(p)
    if violations:
        gen_line = {name: line_no for name, _, _, line_no in gens}
        rel_line, parsed = {}, iter(words)
        for cname, texts, line_no in rels:
            for w in islice(parsed, len(texts)):
                rel_line[(cname, w.letters)] = line_no
        line = None
        for v in violations:
            if v.code == "FixedPointInvolution":
                line = gen_line.get(v.witness)
            elif v.code in ("RelatorNotClosed", "EmptyRelator"):
                x, r = v.witness
                line = rel_line.get((x, r.letters))
            if line is not None:
                break
        raise SemanticError("; ".join(str(v) for v in violations), line)
    return p


def _read_lines(lines):
    """``(classes, gens, rels)`` of the stripped, comment-free ``lines``:
    ``gens`` lists ``(name, kind, image table, line)`` and ``rels``
    ``(class, word texts, line)``, both in line order.  None if any line
    is malformed."""
    numbered = [(line_no, line) for line_no, line in enumerate(lines, 1) if line]
    if not numbered or not numbered[0][1].startswith("classes:"):
        return None
    classes = tuple(numbered[0][1][len("classes:"):].split())
    class_set = set(classes)
    if not classes or len(class_set) != len(classes):
        return None
    gen_lines = [(line_no, line[4:]) for line_no, line in numbered
                 if line.startswith("gen ")]
    rel_lines = [(line_no, line[4:].partition(":")) for line_no, line in numbered
                 if line.startswith("rel ")]
    if 1 + len(gen_lines) + len(rel_lines) != len(numbered):
        return None
    gens = []
    for line_no, body in gen_lines:
        parts = [part.strip() for part in body.split(":", 2)]
        if len(parts) != 3:
            return None
        name, kind, cycles = parts
        if (not name or not all(c.isalnum() or c == "_" for c in name)
                or kind not in ("U", "I") or any(g[0] == name for g in gens)):
            return None
        table = _cycle_table(cycles, classes, class_set)
        if table is None:
            return None
        gens.append((name, kind, table, line_no))
    rels = [(cname.strip(), list(filter(None, map(str.strip, words.split(",")))),
             line_no) for line_no, (cname, colon, words) in rel_lines if colon]
    if len(rels) != len(rel_lines) or not class_set.issuperset(
            cname for cname, _, _ in rels):
        return None
    return classes, gens, rels


def _cycle_table(text, classes, class_set):
    """The image of each class under cycle notation over ``class_set``,
    classes it omits fixed, or None if the notation is malformed or names
    a class twice."""
    *cycles, rest = text.split(")")
    if rest.strip():
        return None
    bodies = list(map(str.lstrip, cycles))
    if not all(map(str.startswith, bodies, repeat("("))):
        return None
    cycles = [body[1:].replace(",", " ").split() for body in bodies]
    moved = list(chain.from_iterable(cycles))
    image = dict(zip(moved, chain.from_iterable(c[1:] + c[:1] for c in cycles)))
    if len(image) != len(moved) or not image.keys() <= class_set:
        return None
    return dict(zip(classes, map(image.get, classes, classes)))


def _raise_word_error(rels, alphabet):
    """Raise the error of the first malformed relator word, with its line."""
    for _, texts, line_no in rels:
        for t in texts:
            try:
                parse_word(t, alphabet)
            except WordSyntaxError as exc:
                raise DslSyntaxError(f"bad word {t!r}: {exc}", line_no) from None


def _raise_line_error(text):
    """Raise the error of the first malformed line of ``text``, in line
    order, or else report the missing classes line."""
    class_set, names = None, set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("classes:"):
            if class_set is not None:
                raise DslSyntaxError("duplicate classes line", line_no)
            classes = stripped[len("classes:"):].split()
            class_set = set(classes)
            if not classes:
                raise DslSyntaxError("empty class list", line_no)
            if len(class_set) != len(classes):
                raise SemanticError("duplicate class name", line_no)
        elif stripped.startswith("gen "):
            if class_set is None:
                raise DslSyntaxError("classes must be declared before generators",
                                     line_no)
            parts = [part.strip() for part in stripped[4:].split(":", 2)]
            if len(parts) != 3:
                raise DslSyntaxError("expected 'gen NAME : U|I : CYCLES'", line_no)
            name, kind, cycles = parts
            if not name or not all(c.isalnum() or c == "_" for c in name):
                raise DslSyntaxError(f"bad generator name {name!r}", line_no)
            if kind not in ("U", "I"):
                raise DslSyntaxError(f"generator kind must be U or I, got {kind!r}",
                                     line_no)
            if name in names:
                raise SemanticError(f"duplicate generator {name!r}", line_no)
            names.add(name)
            _check_cycles(cycles, class_set, line_no)
        elif stripped.startswith("rel "):
            if class_set is None:
                raise DslSyntaxError("classes must be declared before relators",
                                     line_no)
            cname, colon, _ = stripped[4:].partition(":")
            if not colon:
                raise DslSyntaxError("expected 'rel CLASS : word, word'", line_no)
            if cname.strip() not in class_set:
                raise SemanticError(f"unknown class {cname.strip()!r}", line_no)
        else:
            raise DslSyntaxError(f"unrecognised line {stripped!r}", line_no)
    raise DslSyntaxError("missing classes line", 1)


def _check_cycles(text, class_set, line_no):
    """Raise the first error of cycle notation, read one character at a
    time so that a syntax error carries its column."""
    moved = set()
    i = 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        if text[i] != "(":
            raise DslSyntaxError("expected '(' in cycle notation", line_no, i + 1)
        j = text.find(")", i)
        if j < 0:
            raise DslSyntaxError("unclosed cycle", line_no, i + 1)
        for x in text[i + 1:j].replace(",", " ").split():
            if x not in class_set:
                raise SemanticError(f"unknown class {x!r} in cycle notation", line_no)
            if x in moved:
                raise SemanticError(f"class {x!r} appears twice in cycle notation",
                                    line_no)
            moved.add(x)
        i = j + 1


def serialize(p):
    """Canonical text: classes and generators in declaration order, relators
    in input order.  Stable byte-for-byte for a fixed presentation."""
    names, i_gens = p.alphabet.names, set(p.alphabet.i_gens)
    kinds = ["I" if name in i_gens else "U" for name in names]
    tables = map(p.action.table, names)
    printed = {}        # an extraction attaches one word to many classes

    def text(word):
        s = printed.get(word.letters)
        if s is None:
            s = printed[word.letters] = str(word)
        return s

    return "\n".join([
        "classes: " + " ".join(p.classes),
        *(f"gen {name} : {kind} : {_cycle_notation(p.classes, table)}"
          for name, kind, table in zip(names, kinds, tables)),
        *(f"rel {x} : " + ", ".join(map(text, rels))
          for x, rels in zip(p.classes, map(p.relators.get, p.classes)) if rels),
    ]) + "\n"


def _cycle_notation(classes, table):
    """Every cycle of ``table``, fixed points included, from its first
    class in ``classes``."""
    seen, parts = set(), []
    for x in classes:
        if x in seen:
            continue
        cycle, y = [x], table[x]
        while y != x:
            cycle.append(y)
            y = table[y]
        seen.update(cycle)
        parts.append("(" + " ".join(cycle) + ")")
    return "".join(parts)
