"""Partite presentations: data model, validation, conversions and the
line-oriented text format.

A presentation consists of an ordered class set, an alphabet of free and
involutive generators, a class action (one permutation of the classes per
generator) and one relator list per class.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import islice

from .errors import DslSyntaxError, EmptyS2, SemanticError, WordSyntaxError
from .words import (Alphabet, ClassAction, Word, apply_action,
                    is_generator_name, parse_word, parse_words)


class Violation(namedtuple("Violation", "code witness detail")):
    """One broken invariant: immutable and hashable."""

    __slots__ = ()

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


class TwoPartitePresentation(
        namedtuple("TwoPartitePresentation", "s1 u2 i2 r0 r1 pairing",
                   defaults=(None,))):
    """Two vertex classes; s1 stays inside a class, u2/i2 swap the classes.
    ``pairing``, when set, maps each generator of side 1 to the generator
    of side 0 that it is paired with (see ``bicayley_to_presentation``)."""

    __slots__ = ()

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
    s1, u2, i2 = tuple(s1), tuple(u2), tuple(i2)
    alphabet = Alphabet(s1 + u2, i2)

    def conv(ws):
        return tuple(w if isinstance(w, Word) else parse_word(w, alphabet)
                     for w in ws)

    return TwoPartitePresentation(s1, u2, i2, conv(r0), conv(r1))


# ---------------------------------------------------------------------------
# Text format.  Line oriented, '#' comments:
#
#   classes: 0 1
#   gen a : U : (0)(1)
#   gen b : I : (0 1)
#   rel 0 : a^5, a b a^2 b
#   rel 1 : a^5
#
# ``parse`` reads the lines once, in line order, and raises the error of the
# first malformed line where it meets it, with its line (and, in cycle
# notation, its column in the raw line).  The classes line comes first;
# generator and relator lines follow in any order.  Cycle notation is split
# at each ')'.  Every relator literal of the text is then read through one
# token table; a malformed one is reported at its line, found from its index
# among the literals, and a presentation that ``validate`` rejects at the
# line of the literal or generator concerned.  A bulk pass that only
# accepts, with a second walk that only raises, read the pipeline
# benchmark's presentations no faster than this one pass, so unlike graph
# text the format keeps a single reader.


def parse(text):
    """Parse presentation text; raises DslSyntaxError / SemanticError."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    classes, gens, rels = _read_lines(lines)
    alphabet = Alphabet(
        tuple(name for name, (kind, _, _) in gens.items() if kind == "U"),
        tuple(name for name, (kind, _, _) in gens.items() if kind == "I"))
    try:
        action = ClassAction(alphabet, classes,
                             {name: table for name, (_, table, _) in gens.items()})
    except ValueError as exc:
        raise SemanticError(str(exc)) from None

    words = []
    try:
        for word in parse_words([t for _, texts, _ in rels for t in texts],
                                alphabet):
            words.append(word)
    except WordSyntaxError as exc:
        k = len(words)          # the bad literal's index among all of them
        for _, texts, line_no in rels:
            if k < len(texts):
                raise DslSyntaxError(f"bad word {texts[k]!r}: {exc}",
                                     line_no) from None
            k -= len(texts)
    relators, parsed = {}, iter(words)
    for cname, texts, _ in rels:
        relators.setdefault(cname, []).extend(islice(parsed, len(texts)))

    p = PartitePresentation(classes, alphabet, action, relators)
    violations = validate(p)
    if violations:
        gen_line = {name: line_no for name, (_, _, line_no) in gens.items()}
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
    """``(classes, gens, rels)`` of the comment-free ``lines``, read in
    line order: ``gens`` maps each generator name to ``(kind, image table,
    line)`` and ``rels`` lists ``(class, word texts, line)``.  Raises the
    error of the first malformed line."""
    classes, gens, rels = None, {}, []
    for line_no, raw in enumerate(lines, 1):
        line = raw.strip()
        if line.startswith("rel "):
            if classes is None:
                raise DslSyntaxError("classes must be declared before relators",
                                     line_no)
            cname, colon, words = line[4:].partition(":")
            cname = cname.strip()
            if not colon:
                raise DslSyntaxError("expected 'rel CLASS : word, word'", line_no)
            if cname not in class_set:
                raise SemanticError(f"unknown class {cname!r}", line_no)
            rels.append((cname, list(filter(None, map(str.strip, words.split(",")))),
                         line_no))
        elif line.startswith("gen "):
            if classes is None:
                raise DslSyntaxError("classes must be declared before generators",
                                     line_no)
            parts = [part.strip() for part in line[4:].split(":", 2)]
            if len(parts) != 3:
                raise DslSyntaxError("expected 'gen NAME : U|I : CYCLES'", line_no)
            name, kind, _ = parts
            if not is_generator_name(name):
                raise DslSyntaxError(f"bad generator name {name!r}", line_no)
            if kind not in ("U", "I"):
                raise DslSyntaxError(f"generator kind must be U or I, got {kind!r}",
                                     line_no)
            if name in gens:
                raise SemanticError(f"duplicate generator {name!r}", line_no)
            gens[name] = (kind, _cycle_table(raw, classes, class_set, line_no),
                          line_no)
        elif line.startswith("classes:"):
            if classes is not None:
                raise DslSyntaxError("duplicate classes line", line_no)
            classes = tuple(line[len("classes:"):].split())
            class_set = set(classes)
            if not classes:
                raise DslSyntaxError("empty class list", line_no)
            if len(class_set) != len(classes):
                raise SemanticError("duplicate class name", line_no)
        elif line:
            raise DslSyntaxError(f"unrecognised line {line!r}", line_no)
    if classes is None:
        raise DslSyntaxError("missing classes line", 1)
    return classes, gens, rels


def _cycle_table(text, classes, class_set, line_no):
    """The image of each class under the cycle notation after the second
    ':' of the generator line ``text``, classes it omits fixed.  Raises the
    first error of the notation; a syntax error carries its column in
    ``text``."""
    col = text.index(":", text.index(":") + 1) + 1     # the next cycle's index
    *cycles, rest = text[col:].split(")")
    image = {}
    for body in cycles:
        cycle = body.lstrip()
        if not cycle.startswith("("):
            raise DslSyntaxError("expected '(' in cycle notation", line_no,
                                 col + len(body) - len(cycle) + 1)
        cycle = cycle[1:].replace(",", " ").split()
        for x, y in zip(cycle, cycle[1:] + cycle[:1]):
            if x in image or x not in class_set:
                raise SemanticError(
                    f"class {x!r} appears twice in cycle notation" if x in image
                    else f"unknown class {x!r} in cycle notation", line_no)
            image[x] = y
        col += len(body) + 1
    cycle = rest.lstrip()
    if cycle:
        raise DslSyntaxError("unclosed cycle" if cycle[0] == "(" else
                             "expected '(' in cycle notation", line_no,
                             col + len(rest) - len(cycle) + 1)
    return dict(zip(classes, map(image.get, classes, classes)))


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
