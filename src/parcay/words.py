"""Words over a generator alphabet with designated involutive letters.

A letter is a signed integer code: ``+(i+1)`` / ``-(i+1)`` stand for the
i-th generator and its formal inverse.  Involutive generators are their own
inverses and never carry a negative code in normal form.  Normal form also
forbids adjacent cancelling pairs, so equal words are equal tuples, which
keeps relator scanning cheap.

Word literals (``a^5``, ``c1^-1 m``, ``(ab)^5``) are read one
whitespace-separated token at a time through a token table, a dict from
token text to the token's letters in normal form, so a literal costs one
dict lookup per token and letters cancel only where two tokens meet.  On
a miss the positional scanner reads the token alone, so the table is only
a memo in front of the one grammar.  A literal with any token that is not
one whole factor run (a parenthesis, a leading or trailing ``^``, an
unknown name, or more than ``_TOKEN_LETTERS`` letters such as ``a^800``),
or so long that its tokens could spell out more than ``MAX_WORD_LETTERS``
letters, is read by the scanner as a whole; only the scanner raises
``WordSyntaxError`` and places it.  ``parse_words`` shares one table
across many literals, and reads a literal met before only once, as
``presentation.parse`` does for all the relators of one text; no table
outlives the call.
"""

from __future__ import annotations

import operator
import re

from .errors import UnknownClass, UnknownGenerator, WordSyntaxError


class Alphabet:
    """Ordered generator names split into free (``u_gens``) and involutive
    (``i_gens``) kinds."""

    def __init__(self, u_gens=(), i_gens=()):
        self.u_gens = tuple(u_gens)
        self.i_gens = tuple(i_gens)
        self.names = self.u_gens + self.i_gens
        if len(set(self.names)) != len(self.names):
            raise ValueError("generator names must be pairwise distinct")
        self._code = {name: i + 1 for i, name in enumerate(self.names)}
        self._n_u = len(self.u_gens)
        # Normal form, inverse, name and one-letter word text of every code,
        # an involutive letter's negative code included.
        codes = [s * c for c in range(1, len(self.names) + 1) for s in (1, -1)]
        self._normal = {x: abs(x) if self.is_involution(x) else x for x in codes}
        self._inverse = {x: abs(x) if self.is_involution(x) else -x for x in codes}
        self._name = {x: self.names[abs(x) - 1] for x in codes}
        self._text = {x: name if x > 0 else name + "^-1"
                      for x, name in self._name.items()}

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return (isinstance(other, Alphabet)
                and self.u_gens == other.u_gens and self.i_gens == other.i_gens)

    def __hash__(self):
        return hash((self.u_gens, self.i_gens))

    def __repr__(self):
        return f"Alphabet(u_gens={self.u_gens!r}, i_gens={self.i_gens!r})"

    def code(self, name, sign=1):
        try:
            c = self._code[name]
        except KeyError:
            raise UnknownGenerator(f"unknown generator {name!r}") from None
        return c if sign >= 0 else -c

    def is_involution(self, code):
        return abs(code) > self._n_u

    def name_of(self, code):
        return self.names[abs(code) - 1]

    def inverse_letter(self, code):
        return _look_up(self._inverse, code)

    def letters(self):
        """All distinct letter codes: u-gens signed both ways, i-gens once."""
        out = [i + 1 for i in range(self._n_u)]
        out += [-(i + 1) for i in range(self._n_u)]
        out += [i + 1 for i in range(self._n_u, len(self.names))]
        return out

    # Colour strings are how letters appear on graph darts and in files.
    def colour_of(self, code):
        name = self.name_of(code)
        return name if code > 0 or self.is_involution(code) else name + "^-1"


def _look_up(table, code):
    try:
        return table[code]
    except KeyError:
        raise UnknownGenerator(f"letter code {code} outside alphabet") from None


def reduce(raw, alphabet):
    """Normal form of a raw letter sequence: free cancellation plus s*s = 1
    for involutive s.  Idempotent."""
    return Word(alphabet, tuple(_cancel([], raw, alphabet)), _reduced=True)


def _cancel(stack, raw, alphabet):
    """Push each letter of ``raw``, in normal form, onto ``stack``, a list
    of letters in normal form, popping the top instead where the two
    cancel; returns ``stack``."""
    normal, inverse = alphabet._normal, alphabet._inverse
    for code in raw:
        try:
            code = normal[code]
        except KeyError:
            raise UnknownGenerator(f"letter code {code} outside alphabet") from None
        if stack and stack[-1] == inverse[code]:
            stack.pop()
        else:
            stack.append(code)
    return stack


class Word:
    """An element of the free product generated by the alphabet, stored in
    normal form."""

    __slots__ = ("alphabet", "letters")

    def __init__(self, alphabet, letters=(), _reduced=False):
        if not _reduced:
            letters = reduce(letters, alphabet).letters
        self.alphabet = alphabet
        self.letters = tuple(letters)

    def __len__(self):
        return len(self.letters)

    def __bool__(self):
        return bool(self.letters)

    def __eq__(self, other):
        return (isinstance(other, Word) and self.letters == other.letters
                and self.alphabet == other.alphabet)

    def __hash__(self):
        return hash(self.letters)

    def __mul__(self, other):
        return reduce(self.letters + other.letters, self.alphabet)

    def inverse(self):
        inverse = self.alphabet._inverse
        return Word(self.alphabet, tuple([inverse[c] for c in reversed(self.letters)]),
                    _reduced=True)

    def pairs(self):
        return [(self.alphabet.name_of(c), 1 if c > 0 else -1) for c in self.letters]

    def __str__(self):
        """Runs of one letter print as ``name`` or ``name^k``, k signed; the
        empty word prints as ``()``, which reads back as the empty word."""
        if not self.letters:
            return "()"
        names, text = self.alphabet._name, self.alphabet._text
        out = []
        prev, n = None, 0
        for c in self.letters + (0,):      # code 0 ends the last run
            if c == prev:
                n += 1
                continue
            if n:
                out.append(text[prev] if n == 1
                           else f"{names[prev]}^{n if prev > 0 else -n}")
            prev, n = c, 1
        return " ".join(out)

    def __repr__(self):
        return f"Word({self})"


# ---------------------------------------------------------------------------
# Word literals: juxtaposed names, ^k exponents, parenthesised subwords,
# read through a token table in front of the positional scanner (see the
# module docstring).

# One factor: an opening parenthesis, or a closing one or a run of name
# characters, each with an optional exponent.
_FACTOR = re.compile(r"\s*(?:(\()|(?:(\))|(\w+))(\s*\^\s*([+-]?[0-9]+)?)?)")
_SPACE = re.compile(r"\s*")
MAX_WORD_LETTERS = 1_000_000   # letters a literal may spell out
_TOKEN_LETTERS = 64            # letters a token-table entry may hold


def _lex_names(run, alphabet, pos):
    """Split a run of name characters into known generator names, longest
    match first; single characters must then all be generators."""
    if run in alphabet._code:
        return [run]
    out = []
    i = 0
    names = sorted(alphabet.names, key=len, reverse=True)
    while i < len(run):
        for name in names:
            if run.startswith(name, i):
                out.append(name)
                i += len(name)
                break
        else:
            raise WordSyntaxError(f"unknown generator in {run!r}", pos + i)
    return out


def _exponent(text):
    """``int(text)`` for a signed run of ASCII digits, except that a value
    past ``MAX_WORD_LETTERS`` becomes ``MAX_WORD_LETTERS + 1`` with its
    sign: no literal can use more, and a long digit string is never
    converted."""
    digits = text.lstrip("+-").lstrip("0")
    if len(digits) > len(str(MAX_WORD_LETTERS)):
        k = MAX_WORD_LETTERS + 1
    else:
        k = int(digits or "0")
    return -k if text[0] == "-" else k


def _scan(text, alphabet):
    """Raw letter codes of a literal, read factor by factor from the left.

    Open parentheses are kept on an explicit stack, so nesting depth is
    not limited by the interpreter's recursion limit.  A literal that would
    spell out more than ``MAX_WORD_LETTERS`` letters is a syntax error,
    raised before the letters are built."""
    inverse = alphabet._inverse
    groups = [[]]      # letters of the whole word and of each open group
    runs = {}          # name run -> its letter codes
    pos = 0
    while True:
        m = _FACTOR.match(text, pos)
        if m is None:
            break
        pos = m.end()
        opening, closing, run, caret, exponent = m.groups()
        if opening:
            groups.append([])
            continue
        if closing:
            if len(groups) == 1:
                raise WordSyntaxError("unexpected character ')'", m.start(2))
            sub = groups.pop()
        else:
            sub = runs.get(run)
            if sub is None:
                sub = runs[run] = [alphabet.code(name) for name in
                                   _lex_names(run, alphabet, m.start(3))]
        k = 1
        if caret:
            if exponent is None:
                sign = text[pos:pos + 1] in ("+", "-")
                raise WordSyntaxError("expected an integer exponent", pos + sign)
            k = _exponent(exponent)
        if len(groups[-1]) + len(sub) * abs(k) > MAX_WORD_LETTERS:
            raise WordSyntaxError(
                f"word longer than {MAX_WORD_LETTERS} letters",
                m.start(5 if caret else 2 if closing else 3))
        if k < 0:
            sub = [inverse[c] for c in reversed(sub)]
        if sub and abs(k) != 1:     # an empty group takes any exponent
            sub = sub * abs(k)
        groups[-1].extend(sub)
    pos = _SPACE.match(text, pos).end()
    if pos < len(text):
        raise WordSyntaxError(f"unexpected character {text[pos]!r}", pos)
    if len(groups) > 1:
        raise WordSyntaxError("unbalanced parenthesis", pos)
    return groups[0]


def _token_letters(token, alphabet):
    """The letters, in normal form, of a token that is one whole factor run
    of known names spelling out at most ``_TOKEN_LETTERS`` letters as the
    scanner reads it; else None."""
    m = _FACTOR.fullmatch(token)
    if m is None or m.group(3) is None:
        return None
    if m.group(4) and (m.group(5) is None
                       or abs(_exponent(m.group(5))) > _TOKEN_LETTERS):
        return None
    try:
        raw = _scan(token, alphabet)
    except WordSyntaxError:
        return None
    return tuple(_cancel([], raw, alphabet)) if len(raw) <= _TOKEN_LETTERS else None


def _read_word(text, alphabet, table):
    """The word of one literal, its tokens looked up in ``table`` (filled
    on a miss).  Tokens join in normal form, so letters cancel only where
    two tokens meet.  The whole literal goes to the scanner if a token is
    not a factor run, or if the literal is so long that its tokens could
    spell out more than ``MAX_WORD_LETTERS`` letters."""
    if len(text) > MAX_WORD_LETTERS // _TOKEN_LETTERS:
        return reduce(_scan(text, alphabet), alphabet)
    inverse = alphabet._inverse
    letters = []
    for token in text.split():
        try:
            tail = table[token]
        except KeyError:
            tail = table[token] = _token_letters(token, alphabet)
        if tail is None:
            return reduce(_scan(text, alphabet), alphabet)
        if letters and tail and letters[-1] == inverse[tail[0]]:
            _cancel(letters, tail, alphabet)
        else:
            letters += tail
    return Word(alphabet, tuple(letters), _reduced=True)


def parse_words(texts, alphabet):
    """Yield the word of each literal in ``texts`` (see ``parse_word``),
    in order, with one token table shared by all of them.  A literal met
    before yields the same word again, unread."""
    table, words = {}, {}
    for text in texts:
        word = words.get(text)
        if word is None:
            word = words[text] = _read_word(text, alphabet, table)
        yield word


def parse_word(text, alphabet):
    """Parse a word literal like ``a^5``, ``a b a^2 b`` or ``(ab)^5``.

    Parentheses nest to any depth.  A literal that would spell out more
    than ``MAX_WORD_LETTERS`` letters is a syntax error, raised before the
    letters are built."""
    return _read_word(text, alphabet, {})


# ---------------------------------------------------------------------------
# Class actions.

class ClassAction:
    """A permutation of the class set for each generator, acting on classes.

    A word acts by applying its letters left to right, matching the order in
    which a dictated walk traverses its edges: the first letter moves first.
    Consequently ``apply(vw, x) == apply(w, apply(v, x))``.
    """

    def __init__(self, alphabet, classes, images):
        """``images[name]`` maps each class to its image under the generator."""
        self.alphabet = alphabet
        self.classes = tuple(classes)
        self._class_set = frozenset(self.classes)
        if len(self._class_set) != len(self.classes):
            raise ValueError("class names must be pairwise distinct")
        # One image dict per signed code: a generator's table under +code,
        # its inverse under -code.
        self._image = {}
        for name in alphabet.names:
            table = dict(images[name])
            inverse = dict(zip(table.values(), table))
            if table.keys() != self._class_set or inverse.keys() != self._class_set:
                raise ValueError(f"image table for {name!r} is not a permutation "
                                 f"of the class set")
            code = alphabet.code(name)
            self._image[code] = table
            self._image[-code] = inverse

    def image(self, code, x):
        try:
            return self._image[code][x]
        except KeyError:
            raise UnknownClass(f"unknown class {x!r}") from None

    def table(self, name):
        return dict(self._image[self.alphabet.code(name)])

    def is_fixed_point_free_involution(self, name):
        code = self.alphabet.code(name)
        t = self._image[code]
        return t == self._image[-code] and not any(map(operator.eq, t, t.values()))

    def is_transitive(self):
        """Whether the orbit of the first class is every class.  A
        permutation of a finite set reaches by its powers every class
        its inverse reaches, so only the generators' own images are
        followed."""
        if not self.classes:
            return False
        tables = [self._image[code] for code in range(1, len(self.alphabet) + 1)]
        seen = {self.classes[0]}
        orbit = [self.classes[0]]
        for x in orbit:
            for table in tables:
                y = table[x]
                if y not in seen:
                    seen.add(y)
                    orbit.append(y)
        return len(seen) == len(self.classes)


def apply_action(action, word, x):
    """Image of class ``x`` under ``word``, letters applied left to right."""
    if x not in action._class_set:
        raise UnknownClass(f"unknown class {x!r}")
    image = action._image
    letters = word.letters if isinstance(word, Word) else word
    try:
        for code in letters:
            x = image[code][x]
    except KeyError:
        raise UnknownClass(f"unknown class {x!r}") from None
    return x

