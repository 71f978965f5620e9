"""Partite presentations of graphs: parse and validate presentations, build
partite Cayley graphs by coset enumeration, decompose graphs into
partition-friendly weak multicycle colourings, extract presentations back
from coloured graphs, and verify the concrete example families."""

from .errors import ParcayError
from .words import (Alphabet, ClassAction, Word, apply_action, parse_word,
                    parse_words, reduce)
from .presentation import (PartitePresentation, TwoPartitePresentation,
                           from_two_partite, parse, serialize, two_partite,
                           validate)
from .graph import (ColouredGraph, automorphism_group, cayley_like_witness,
                    is_cayley, is_vertex_transitive, isomorphic, read_graph,
                    to_dot, write_graph)
from .builder import (ball_sp, build_sp, deck_group, invariant_report,
                      presentation_complex, presentation_graph,
                      presentation_symmetry_implies_vt)
from .decompose import (Matching, euler_orientation, is_multicycle,
                        is_partition_friendly, is_weak_multicycle,
                        maximum_matching, two_factorization,
                        weak_multicycle_colouring)
from .extract import (bicayley_to_presentation, pipeline_presentation,
                      presentation_from_colouring)
from .constructions import (FiniteGroupTable, bi_cayley, cayley_graph,
                            cubic_no_perfect_matching, cyclic_group,
                            dihedral_group, generalized_petersen,
                            k_n_factorization, line_graph,
                            line_graph_presentation, petersen_presentation,
                            two_ended_auto, two_ended_window, two_ended_word)
from .infmatch import (Exhaustion, is_critical,
                       maximal_matching_wrt_miss, miss_sequence,
                       symmetric_difference_report, windowed_perfect_matching)

__all__ = [
    "ParcayError",
    "Alphabet", "ClassAction", "Word", "apply_action", "parse_word",
    "parse_words", "reduce",
    "PartitePresentation", "TwoPartitePresentation", "from_two_partite",
    "parse", "serialize", "two_partite", "validate",
    "ColouredGraph", "automorphism_group", "cayley_like_witness",
    "is_cayley", "is_vertex_transitive", "isomorphic", "read_graph",
    "to_dot", "write_graph",
    "ball_sp", "build_sp", "deck_group", "invariant_report",
    "presentation_complex", "presentation_graph",
    "presentation_symmetry_implies_vt",
    "Matching", "euler_orientation", "is_multicycle",
    "is_partition_friendly", "is_weak_multicycle", "maximum_matching",
    "two_factorization", "weak_multicycle_colouring",
    "bicayley_to_presentation", "pipeline_presentation",
    "presentation_from_colouring",
    "FiniteGroupTable", "bi_cayley", "cayley_graph",
    "cubic_no_perfect_matching", "cyclic_group", "dihedral_group",
    "generalized_petersen", "k_n_factorization", "line_graph",
    "line_graph_presentation",
    "petersen_presentation", "two_ended_auto", "two_ended_window",
    "two_ended_word",
    "Exhaustion", "is_critical", "maximal_matching_wrt_miss",
    "miss_sequence", "symmetric_difference_report",
    "windowed_perfect_matching",
]

__version__ = "0.1.0"
