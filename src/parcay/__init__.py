"""Partite presentations of graphs: parse and validate presentations, build
partite Cayley graphs by coset enumeration, decompose graphs into
partition-friendly weak multicycle colourings, extract presentations back
from coloured graphs, and verify the concrete example families."""

from .errors import ParcayError
from .words import (Alphabet, ClassAction, Word, apply_action, in_stabilizer,
                    parse_word, parse_words, reduce)
from .presentation import (PartitePresentation, TwoPartitePresentation,
                           from_two_partite, parse, serialize, two_partite,
                           validate)
from .graph import (ColouredGraph, Walk, automorphism_group,
                    cayley_like_witness, dictated_walk,
                    fundamental_cycle_words, is_cayley, is_vertex_transitive,
                    isomorphic, read_graph, to_dot, walk_word, write_graph)
from .builder import (ball_sp, build_sp, deck_group, invariant_report,
                      presentation_complex, presentation_graph,
                      presentation_symmetry_implies_vt, vertex_group_order)
from .decompose import (EdgeColouring, Matching, euler_orientation,
                        is_multicycle, is_partition_friendly,
                        is_weak_multicycle, k_n_factorization,
                        maximum_matching, two_factor, two_factorization,
                        weak_multicycle_colouring)
from .extract import (bicayley_to_presentation, pipeline_presentation,
                      presentation_from_colouring, refine_colouring)
from .constructions import (FiniteGroupTable, bi_cayley, cayley_graph,
                            cubic_no_perfect_matching, cyclic_group,
                            dihedral_group, generalized_petersen, line_graph,
                            line_graph_presentation, petersen_presentation,
                            two_ended_auto, two_ended_window, two_ended_word)
from .infmatch import (Exhaustion, compare, is_critical,
                       maximal_matching_wrt_miss, miss_sequence,
                       symmetric_difference_report, windowed_perfect_matching)

__all__ = [
    "ParcayError",
    "Alphabet", "ClassAction", "Word", "apply_action", "in_stabilizer",
    "parse_word", "parse_words", "reduce",
    "PartitePresentation", "TwoPartitePresentation", "from_two_partite",
    "parse", "serialize", "two_partite", "validate",
    "ColouredGraph", "Walk", "automorphism_group", "cayley_like_witness",
    "dictated_walk", "fundamental_cycle_words", "is_cayley",
    "is_vertex_transitive", "isomorphic", "read_graph", "to_dot",
    "walk_word", "write_graph",
    "ball_sp", "build_sp", "deck_group", "invariant_report",
    "presentation_complex", "presentation_graph",
    "presentation_symmetry_implies_vt", "vertex_group_order",
    "EdgeColouring", "Matching", "euler_orientation", "is_multicycle",
    "is_partition_friendly", "is_weak_multicycle", "k_n_factorization",
    "maximum_matching", "two_factor", "two_factorization",
    "weak_multicycle_colouring",
    "bicayley_to_presentation", "pipeline_presentation",
    "presentation_from_colouring", "refine_colouring",
    "FiniteGroupTable", "bi_cayley", "cayley_graph",
    "cubic_no_perfect_matching", "cyclic_group", "dihedral_group",
    "generalized_petersen", "line_graph", "line_graph_presentation",
    "petersen_presentation", "two_ended_auto", "two_ended_window",
    "two_ended_word",
    "Exhaustion", "compare", "is_critical", "maximal_matching_wrt_miss",
    "miss_sequence", "symmetric_difference_report",
    "windowed_perfect_matching",
]

__version__ = "0.1.0"
