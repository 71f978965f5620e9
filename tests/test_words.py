import pytest
from hypothesis import given, settings, strategies as st

from conftest import positional_parse_word
from parcay.errors import UnknownClass, UnknownGenerator, WordSyntaxError
from parcay.words import (MAX_WORD_LETTERS, Alphabet, ClassAction, Word,
                          apply_action, parse_word, parse_words, reduce)

AB = Alphabet(("a",), ("b",))          # a free, b involutive
PETERSEN = ClassAction(AB, ("0", "1"), {"a": {"0": "0", "1": "1"},
                                        "b": {"0": "1", "1": "0"}})


def codes(*pairs):
    return [AB.code(name, sign) for name, sign in pairs]


def times(v, w):
    """The product of two words in the free product: their letters joined
    and reduced."""
    return reduce(v.letters + w.letters, AB)


def test_free_cancellation():
    w = reduce(codes(("a", 1), ("a", -1), ("b", 1)), AB)
    assert str(w) == "b"


def test_involution_squares_cancel():
    assert reduce(codes(("b", 1), ("b", 1)), AB) == Word(AB)


def test_two_step_cancellation():
    raw = codes(("a", 1), ("b", 1), ("a", -1), ("a", 1), ("b", 1), ("b", 1))
    assert str(reduce(raw, AB)) == "a b"


def test_involutions_never_negative():
    w = reduce([AB.code("b", -1)], AB)
    assert w.letters == (AB.code("b"),)


def test_unknown_generator():
    with pytest.raises(UnknownGenerator):
        AB.code("z")
    with pytest.raises(UnknownGenerator):
        reduce([99], AB)


def test_invert_examples():
    assert str(parse_word("a b", AB).inverse()) == "b a^-1"
    assert Word(AB).inverse() == Word(AB)
    assert str(parse_word("a^2", AB).inverse()) == "a^-2"


def test_apply_action_examples():
    assert apply_action(PETERSEN, parse_word("b", AB), "0") == "1"
    assert apply_action(PETERSEN, parse_word("a b a^2 b", AB), "0") == "0"
    assert apply_action(PETERSEN, Word(AB), "1") == "1"


def test_apply_action_line_petersen():
    alph = Alphabet(("a", "b"), ())
    act = ClassAction(alph, ("1", "2", "3"), {
        "a": {"1": "2", "2": "1", "3": "3"},
        "b": {"1": "1", "2": "3", "3": "2"}})
    assert apply_action(act, parse_word("a", alph), "1") == "2"


def test_apply_action_unknown_class():
    with pytest.raises(UnknownClass):
        apply_action(PETERSEN, parse_word("a", AB), "7")


def test_apply_action_stabiliser_examples():
    assert apply_action(PETERSEN, parse_word("b", AB), "0") == "1"
    assert apply_action(PETERSEN, parse_word("a^5", AB), "1") == "1"
    assert apply_action(PETERSEN, Word(AB), "0") == "0"
    assert apply_action(PETERSEN, Word(AB), "1") == "1"


def test_composition_is_walk_order():
    # letters act left to right, so (vw) . x == w . (v . x)
    v = parse_word("a b", AB)
    w = parse_word("b a", AB)
    for x in ("0", "1"):
        assert (apply_action(PETERSEN, times(v, w), x)
                == apply_action(PETERSEN, w.letters,
                                apply_action(PETERSEN, v, x)))


# -- word literals ------------------------------------------------------------

def test_parse_word_literals():
    assert str(parse_word("a^5", AB)) == "a^5"
    assert parse_word("(ab)^5", AB).letters == parse_word("a b a b a b a b a b",
                                                          AB).letters
    assert parse_word("aba", AB).letters == parse_word("a b a", AB).letters
    assert parse_word("a^-2", AB) == parse_word("a^2", AB).inverse()
    assert parse_word("b^-1", AB) == parse_word("b", AB)


def test_parse_word_errors():
    with pytest.raises(WordSyntaxError):
        parse_word("a^", AB)
    with pytest.raises(WordSyntaxError):
        parse_word("(ab", AB)
    with pytest.raises((WordSyntaxError, UnknownGenerator)):
        parse_word("a z", AB)


def test_parse_word_nesting_needs_no_recursion():
    depth = 3000
    w = parse_word("(" * depth + "a" + ")" * depth, AB)
    assert w.letters == (AB.code("a"),)
    with pytest.raises(WordSyntaxError):
        parse_word("(" * depth + "a" + ")" * (depth - 1), AB)
    with pytest.raises(WordSyntaxError):
        parse_word("(" * (depth - 1) + "a" + ")" * depth, AB)


def test_parse_word_rejects_exponents_past_the_index_range():
    with pytest.raises(WordSyntaxError):
        parse_word("a^99999999999999999999999", AB)
    with pytest.raises(WordSyntaxError):
        parse_word("(a b)^-99999999999999999999999", AB)


def test_parse_word_bounds_the_spelled_out_length():
    for text in ("a^1000001", "(a b)^500001", "(a^600000)(a^600000)"):
        with pytest.raises(WordSyntaxError):
            parse_word(text, AB)
    assert len(parse_word(f"a^{MAX_WORD_LETTERS}", AB)) == MAX_WORD_LETTERS


def test_parse_word_exponents_are_ascii_digits():
    with pytest.raises(WordSyntaxError):
        parse_word("a^\u00b2", AB)
    with pytest.raises((WordSyntaxError, UnknownGenerator)):
        parse_word("a^-1\u00b2", AB)


def test_multicharacter_names_need_longest_match():
    alph = Alphabet(("ab", "a"), ())
    assert parse_word("ab", alph).letters == (alph.code("ab"),)


def test_parse_word_refuses_exponents_past_the_integer_digit_limit():
    huge = "9" * 5000          # past the interpreter's int conversion limit
    for text in ("a^" + huge, "(a b)^-" + huge, "a ^ +" + huge):
        with pytest.raises(WordSyntaxError, match="word longer than"):
            parse_word(text, AB)
    assert parse_word("()^" + huge, AB) == Word(AB)
    assert parse_word("a^-" + "0" * 5000 + "2", AB) == parse_word("a^-2", AB)


# -- the token table against the positional scanner -----------------------------

# Multi-character names, one that is two others juxtaposed ("ab"), and
# names with digits and underscores.
NAMED = Alphabet(("a", "ab", "c1", "x_y"), ("b", "s"))
FRAGMENTS = [
    "a", "ab", "b", "c1", "x_y", "s", "abs",       # known names and runs
    " a^-1", " ab^2", "c1 ", " s^3 ",              # whole tokens
    "z", "q9", "\u00e9", "C1",                     # unknown names
    "^", "^-", "^+", "+", "-",                     # exponent marks and signs
    "0", "1", "2", "17", "80", "007",              # ASCII digits
    "\u00b2", "\u0663", "\uff11",                  # non-ASCII digits
    " ", "  ", "\t", "\n", " ^ ", "^ ",             # spaces, around ^ too
    "(", ")", "()", "(a b)", "((", "))",           # parentheses
    ",", "*",
]
literals = st.lists(st.one_of(st.sampled_from(FRAGMENTS),
                              st.integers(10 ** 7, 10 ** 40).map(str)),
                    max_size=14).map("".join)


def outcome(parse, text):
    try:
        return "letters", parse(text, NAMED).letters
    except WordSyntaxError as exc:
        return "error", str(exc), exc.pos


@settings(max_examples=500)
@given(literals)
def test_token_table_agrees_with_the_positional_scanner(text):
    assert outcome(parse_word, text) == outcome(positional_parse_word, text)


@given(st.lists(literals, max_size=6))
def test_a_shared_token_table_agrees_with_the_positional_scanner(texts):
    words = parse_words(texts, NAMED)
    for text in texts:
        expected = outcome(positional_parse_word, text)
        assert outcome(lambda _text, _alphabet: next(words), text) == expected
        if expected[0] == "error":
            break


def test_long_tokens_and_groups_fall_back_to_the_scanner():
    for text in ("a^800 b", "b a^-800", "(a b)^3 c1", "a ^2", "a^ -2 b"):
        assert outcome(parse_word, text) == outcome(positional_parse_word, text)
        assert outcome(parse_word, text)[0] == "letters"


# -- algebraic laws, property based -------------------------------------------

raw_letters = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=30)


@given(raw_letters)
def test_reduce_is_a_retraction(raw):
    w = reduce(raw, AB)
    assert reduce(w.letters, AB) == w


@given(raw_letters)
def test_word_times_inverse_is_trivial(raw):
    w = reduce(raw, AB)
    assert times(w, w.inverse()) == Word(AB)
    assert times(w.inverse(), w) == Word(AB)


@given(raw_letters, raw_letters, raw_letters)
def test_associativity(x, y, z):
    u, v, w = (reduce(r, AB) for r in (x, y, z))
    assert times(times(u, v), w) == times(u, times(v, w))


@given(raw_letters)
def test_action_respects_reduction(raw):
    for x in ("0", "1"):
        assert (apply_action(PETERSEN, raw, x)
                == apply_action(PETERSEN, reduce(raw, AB), x))


def test_involution_action_is_fixed_point_free_of_order_two():
    for x in ("0", "1"):
        y = apply_action(PETERSEN, parse_word("b", AB), x)
        assert y != x
        assert apply_action(PETERSEN, parse_word("b", AB), y) == x


named_letters = st.lists(st.sampled_from(NAMED.letters() + [-5, -6]), max_size=30)


@given(named_letters)
def test_printed_words_parse_back(raw):
    w = reduce(raw, NAMED)
    assert parse_word(str(w), NAMED) == w
    runs = str(w).split()
    assert all(a.split("^")[0] != b.split("^")[0] for a, b in zip(runs, runs[1:]))


def test_empty_word_prints_as_the_empty_group():
    assert str(Word(NAMED)) == "()"
    assert parse_word("()", NAMED) == Word(NAMED)
    assert parse_word(str(Word(NAMED)), NAMED) == Word(NAMED)


# a is a 3-cycle, so its inverse image table differs from its own.
ROTATE = ClassAction(AB, ("0", "1", "2", "3"),
                     {"a": {"0": "1", "1": "2", "2": "0", "3": "3"},
                      "b": {"0": "3", "3": "0", "1": "2", "2": "1"}})


@given(raw_letters)
def test_inverse_word_undoes_the_action(raw):
    w = reduce(raw, AB)
    for x in ROTATE.classes:
        assert apply_action(ROTATE, w.inverse(), apply_action(ROTATE, w, x)) == x
        assert apply_action(ROTATE, Word(AB, raw), x) == apply_action(ROTATE, raw, x)
