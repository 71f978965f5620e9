import math
import random
import re

import pytest
from hypothesis import assume, given, strategies as st

from conftest import parse_by_lines, petersen

from parcay.builder import presentation_complex
from parcay.constructions import (bi_cayley, complete_graph, cycle_graph,
                                  cyclic_group, generalized_petersen,
                                  k_n_factorization, line_graph,
                                  line_graph_presentation)
from parcay.errors import DslSyntaxError, EmptyS2, ParcayError, SemanticError
from parcay.extract import pipeline_presentation
from parcay.presentation import (PartitePresentation, TwoPartitePresentation,
                                 Violation, from_two_partite, parse, serialize,
                                 two_partite, validate)
from parcay.words import Alphabet, ClassAction, apply_action, parse_word, reduce

PETERSEN_TEXT = """\
# the Petersen presentation
classes: 0 1
gen a : U : (0)(1)
gen b : I : (0 1)
rel 0 : a^5, a b a^2 b
rel 1 : a^5
"""


def test_petersen_is_valid():
    assert validate(petersen()) == []


def test_records_compare_and_show_their_fields_in_order():
    # Records are named tuples: equal to the plain tuple of their fields,
    # shown field by field, closed to assignment, and hashable exactly
    # when every field is.
    v = Violation("EmptyRelator", ("0", None), "empty relator")
    assert v == Violation("EmptyRelator", ("0", None), "empty relator")
    assert v != Violation("EmptyRelator", ("1", None), "empty relator")
    assert v == ("EmptyRelator", ("0", None), "empty relator")
    assert repr(v) == ("Violation(code='EmptyRelator', witness=('0', None), "
                       "detail='empty relator')")
    assert len({v, Violation("EmptyRelator", ("0", None), "empty relator")}) == 1
    with pytest.raises(AttributeError):
        v.code = "RelatorNotClosed"
    tp = TwoPartitePresentation(("a",), ("b",), (), ("a^5",), ())
    assert tp == (("a",), ("b",), (), ("a^5",), (), None)
    assert repr(tp) == ("TwoPartitePresentation(s1=('a',), u2=('b',), i2=(), "
                        "r0=('a^5',), r1=(), pairing=None)")
    with pytest.raises(AttributeError):
        tp.r0 = ()
    assert hash(tp) == hash(tuple(tp))
    with pytest.raises(TypeError):
        hash(tp._replace(pairing={"b": "a"}))
    fact = k_n_factorization(4)
    assert fact == (fact.graph, fact.colouring, fact.perms)
    with pytest.raises(TypeError):
        hash(fact)                      # the colouring is a dict
    cx = presentation_complex(petersen())
    assert cx == (cx.graph, cx.cells)
    with pytest.raises(AttributeError):
        cx.cells = []
    line = line_graph_presentation(["a", "b"], ["a b a^-1 b^-1"])
    assert line == (line.presentation,)


def test_fixed_point_involution_violation():
    alph = Alphabet(("a",), ("b",))
    action = ClassAction(alph, ("0", "1"),
                         {"a": {"0": "1", "1": "0"}, "b": {"0": "0", "1": "1"}})
    p = PartitePresentation(("0", "1"), alph, action, {})
    codes = [v.code for v in validate(p)]
    assert "FixedPointInvolution" in codes


def test_relator_not_closed_violation():
    alph = Alphabet((), ("b",))
    action = ClassAction(alph, ("0", "1"), {"b": {"0": "1", "1": "0"}})
    p = PartitePresentation(("0", "1"), alph, action,
                            {"0": [parse_word("b", alph)]})
    codes = [v.code for v in validate(p)]
    assert "RelatorNotClosed" in codes


def test_from_two_partite_petersen():
    p = petersen()
    assert p.classes == ("0", "1")
    assert p.alphabet.u_gens == ("a",)
    assert p.alphabet.i_gens == ("b",)
    assert p.action.table("a") == {"0": "0", "1": "1"}
    assert p.action.table("b") == {"0": "1", "1": "0"}
    assert len(p.relators["0"]) == 2 and len(p.relators["1"]) == 1


def test_from_two_partite_haar_type():
    tp = two_partite([], [], ["s"], [], [])
    p = from_two_partite(tp)
    assert validate(p) == []
    assert p.degree() == 1


def test_from_two_partite_empty_s2():
    with pytest.raises(EmptyS2):
        from_two_partite(two_partite(["a"], [], [], [], []))


def test_relator_parity_matches_stabilizer():
    # even swap-letter count and class stabilisation are two routes to the
    # same predicate
    tp = two_partite(["a"], ["u"], ["s"], [], [])
    p = from_two_partite(tp)
    alph = p.alphabet
    rng = random.Random(0)
    letters = alph.letters()
    for _ in range(200):
        raw = [rng.choice(letters) for _ in range(rng.randrange(0, 12))]
        w = reduce(raw, alph)
        stays = apply_action(p.action, w, "0") == "0"
        assert stays == (tp.swap_count(w) % 2 == 0)


# -- text format ---------------------------------------------------------------

def test_parse_petersen_text():
    p = parse(PETERSEN_TEXT)
    assert p == petersen()


def test_serialize_parse_roundtrip():
    from parcay.acceptance import line_petersen_presentation
    from parcay.constructions import generalized_petersen, line_graph_presentation
    from parcay.extract import pipeline_presentation

    fixtures = [
        petersen(),
        from_two_partite(two_partite([], [], ["s"], [], [])),
        line_petersen_presentation(),
        line_graph_presentation(["a", "b"],
                                ["a^5", "b^2", "a b a^-1 b^-1"]).presentation,
        pipeline_presentation(generalized_petersen(5, 2)),
    ]
    for p in fixtures:
        assert parse(serialize(p)) == p


def test_serialize_is_a_fixpoint_on_every_extraction_and_fixture():
    from parcay.acceptance import presentation_fixtures, roundtrip_corpus
    from parcay.extract import pipeline_presentation

    presentations = {name: pipeline_presentation(g)
                     for name, g in roundtrip_corpus().items()}
    presentations.update((name, p) for name, (p, _) in presentation_fixtures().items())
    for name, p in presentations.items():
        text = serialize(p)
        assert serialize(parse(text)) == text, name


def test_serialize_is_stable():
    p = parse(PETERSEN_TEXT)
    assert serialize(p) == serialize(parse(serialize(p)))


def test_empty_relator_sections_are_fine():
    p = parse("classes: 0 1\ngen b : I : (0 1)\n")
    assert validate(p) == []
    assert all(p.relators[x] == () for x in p.classes)


def test_parse_rejects_fixed_point_involution():
    text = "classes: 0 1\ngen b : I : (0)(1)\n"
    with pytest.raises(SemanticError) as err:
        parse(text)
    assert "FixedPointInvolution" in str(err.value)
    assert err.value.line == 2


def test_parse_syntax_errors_carry_positions():
    with pytest.raises(DslSyntaxError) as err:
        parse("classes: 0 1\ngen a U (0)(1)\n")
    assert err.value.line == 2
    with pytest.raises(DslSyntaxError):
        parse("gen a : U : (0)(1)\n")  # classes must come first
    with pytest.raises(SemanticError):
        parse("classes: 0 1\ngen a : U : (0)(1)\nrel 7 : a\n")


def test_parse_rejects_bad_cycles():
    with pytest.raises(SemanticError):
        parse("classes: 0 1\ngen a : U : (0 0)\n")
    with pytest.raises(DslSyntaxError):
        parse("classes: 0 1\ngen a : U : (0 1\n")


@pytest.mark.parametrize("indent, col", [("", 13), ("  ", 15)])
def test_cycle_errors_carry_their_column_in_the_raw_line(indent, col):
    text = f"classes: 0 1\ngen a : U : (0)(1)\n{indent}gen b : I : (0 1\n"
    with pytest.raises(DslSyntaxError) as err:
        parse(text)
    assert (err.value.line, err.value.col) == (3, col)
    assert str(err.value) == f"unclosed cycle (line 3, column {col})"


def test_multichar_class_names():
    text = ("classes: left right\n"
            "gen a : U : (left)(right)\n"
            "gen s : I : (left right)\n"
            "rel left : a^3, a s a^-1 s\n")
    p = parse(text)
    assert p.classes == ("left", "right")
    assert [str(r) for r in p.relators["left"]] == ["a^3", "a s a^-1 s"]


def test_relators_reducing_to_identity_are_violations():
    text = ("classes: 0 1\n"
            "gen s : I : (0 1)\n"
            "rel 0 : s^2\n")
    with pytest.raises(SemanticError) as err:
        parse(text)
    assert "EmptyRelator" in str(err.value)


def test_serialized_empty_relator_is_reported_as_empty():
    alph = Alphabet(("a",), ())
    action = ClassAction(alph, ("0",), {"a": {"0": "0"}})
    p = PartitePresentation(("0",), alph, action,
                            {"0": [parse_word("a^5", alph),
                                   parse_word("a a^-1", alph)]})
    text = serialize(p)
    assert text.splitlines()[-1] == "rel 0 : a^5, ()"
    with pytest.raises(SemanticError) as err:
        parse(text)
    assert "EmptyRelator" in str(err.value) and "(line 3)" in str(err.value)


# Texts to mutate: the Petersen presentation and one with a class-swapping
# involution, a multi-character name and a parenthesised power.
MUTATION_SEEDS = (PETERSEN_TEXT, """\
classes: left right
gen a : U : (left)(right)
gen s_1 : I : (left right)
rel left : (a s_1)^4, a^-3
rel right : a^3
""")
MUTATION_PIECES = ("(", ")", "^", "^-", "-", "+", "0", "7", " ", "\t", ":",
                   ",", "#", "\n", "a", "b", "s_1", "z", "U", "I", "gen ",
                   "rel ", "classes:", "\u00b2", "\u00e9")


@given(st.data())
def test_mutated_presentation_text_parses_or_raises_parcay_error(data):
    text = data.draw(st.sampled_from(MUTATION_SEEDS))
    for _ in range(data.draw(st.integers(1, 6))):
        i = data.draw(st.integers(0, len(text)))
        kind = data.draw(st.sampled_from(("insert", "delete", "replace")))
        piece = data.draw(st.sampled_from(MUTATION_PIECES))
        if kind == "insert":
            text = text[:i] + piece + text[i:]
        elif kind == "delete":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + piece + text[i + 1:]
    # Bound the product of every number in the text, which bounds the
    # length of every word the text can spell.
    assume(math.prod(int(d) or 1 for d in re.findall("[0-9]+", text)) < 10 ** 4)
    try:
        parse(text)
    except ParcayError:
        pass


def parse_outcome(parse, text):
    """The serialized presentation, or the error's type, message, line and
    column."""
    try:
        return serialize(parse(text))
    except ParcayError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "col", None)


@given(st.data())
def test_mutated_presentation_text_parses_as_the_line_parser_does(data):
    text = data.draw(st.sampled_from(MUTATION_SEEDS))
    for _ in range(data.draw(st.integers(1, 6))):
        i = data.draw(st.integers(0, len(text)))
        kind = data.draw(st.sampled_from(("insert", "delete", "replace")))
        piece = data.draw(st.sampled_from(MUTATION_PIECES))
        if kind == "insert":
            text = text[:i] + piece + text[i:]
        elif kind == "delete":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + piece + text[i + 1:]
    assume(math.prod(int(d) or 1 for d in re.findall("[0-9]+", text)) < 10 ** 4)
    assert parse_outcome(parse, text) == parse_outcome(parse_by_lines, text)


# The graphs of the benchmark's pipeline, unrelabelled.
PIPELINE_GRAPHS = {
    "P(600,3)": lambda: generalized_petersen(600, 3),
    "L(P(400,3))": lambda: line_graph(generalized_petersen(400, 3)),
    "Haar(Z600,{0,1,3})": lambda: bi_cayley(cyclic_group(600), [], [], [0, 1, 3]),
    "K48": lambda: complete_graph(48),
    "C1000": lambda: cycle_graph(1000),
    "C3000": lambda: cycle_graph(3000),
}


@pytest.mark.parametrize("name", list(PIPELINE_GRAPHS))
def test_extracted_pipeline_presentations_parse_back_to_their_text(name):
    text = serialize(pipeline_presentation(PIPELINE_GRAPHS[name]()))
    assert serialize(parse(text)) == text
    assert parse_outcome(parse_by_lines, text) == text


def test_deeply_nested_relator_is_a_syntax_error_not_a_crash():
    text = PETERSEN_TEXT + "rel 1 : " + "(" * 3000 + "a" + ")" * 2999 + "\n"
    with pytest.raises(DslSyntaxError) as err:
        parse(text)
    assert err.value.line == 7
