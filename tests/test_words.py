import pytest
from hypothesis import given, strategies as st

from parcay.errors import UnknownClass, UnknownGenerator, WordSyntaxError
from parcay.words import (MAX_WORD_LETTERS, Alphabet, ClassAction,
                          apply_action, epsilon, in_stabilizer, invert,
                          parse_word, reduce)

AB = Alphabet(("a",), ("b",))          # a free, b involutive
PETERSEN = ClassAction(AB, ("0", "1"), {"a": {"0": "0", "1": "1"},
                                        "b": {"0": "1", "1": "0"}})


def codes(*pairs):
    return [AB.code(name, sign) for name, sign in pairs]


def test_free_cancellation():
    w = reduce(codes(("a", 1), ("a", -1), ("b", 1)), AB)
    assert str(w) == "b"


def test_involution_squares_cancel():
    assert reduce(codes(("b", 1), ("b", 1)), AB) == epsilon(AB)


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
    assert str(invert(parse_word("a b", AB))) == "b a^-1"
    assert invert(epsilon(AB)) == epsilon(AB)
    assert str(invert(parse_word("a^2", AB))) == "a^-2"


def test_apply_action_examples():
    assert apply_action(PETERSEN, parse_word("b", AB), "0") == "1"
    assert apply_action(PETERSEN, parse_word("a b a^2 b", AB), "0") == "0"
    assert apply_action(PETERSEN, epsilon(AB), "1") == "1"


def test_apply_action_line_petersen():
    alph = Alphabet(("a", "b"), ())
    act = ClassAction(alph, ("1", "2", "3"), {
        "a": {"1": "2", "2": "1", "3": "3"},
        "b": {"1": "1", "2": "3", "3": "2"}})
    assert apply_action(act, parse_word("a", alph), "1") == "2"


def test_apply_action_unknown_class():
    with pytest.raises(UnknownClass):
        apply_action(PETERSEN, parse_word("a", AB), "7")


def test_in_stabilizer_examples():
    assert not in_stabilizer(PETERSEN, parse_word("b", AB), "0")
    assert in_stabilizer(PETERSEN, parse_word("a^5", AB), "1")
    assert in_stabilizer(PETERSEN, epsilon(AB), "0")
    assert in_stabilizer(PETERSEN, epsilon(AB), "1")


def test_composition_is_walk_order():
    # letters act left to right, so (vw) . x == w . (v . x)
    v = parse_word("a b", AB)
    w = parse_word("b a", AB)
    for x in ("0", "1"):
        assert (apply_action(PETERSEN, v * w, x)
                == apply_action(PETERSEN, w.letters,
                                apply_action(PETERSEN, v, x)))


# -- word literals ------------------------------------------------------------

def test_parse_word_literals():
    assert str(parse_word("a^5", AB)) == "a^5"
    assert parse_word("(ab)^5", AB).letters == parse_word("a b a b a b a b a b",
                                                          AB).letters
    assert parse_word("aba", AB).letters == parse_word("a b a", AB).letters
    assert parse_word("a^-2", AB) == invert(parse_word("a^2", AB))
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


# -- algebraic laws, property based -------------------------------------------

raw_letters = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=30)


@given(raw_letters)
def test_reduce_is_a_retraction(raw):
    w = reduce(raw, AB)
    assert reduce(w.letters, AB) == w


@given(raw_letters)
def test_word_times_inverse_is_trivial(raw):
    w = reduce(raw, AB)
    assert w * invert(w) == epsilon(AB)
    assert invert(w) * w == epsilon(AB)


@given(raw_letters, raw_letters, raw_letters)
def test_associativity(x, y, z):
    u, v, w = (reduce(r, AB) for r in (x, y, z))
    assert (u * v) * w == u * (v * w)


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
