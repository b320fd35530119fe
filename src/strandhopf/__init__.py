"""Stranded Feynman graphs and their renormalization Hopf algebra.

A stranded graph refines an ordinary Feynman graph: each half-edge
carries parallel strand sections, vertices pair sections locally and
edges pair them across.  The package provides the combinatorial core
(faces, boundary, contraction, insertion), canonical forms and
automorphism counting, the coproduct/antipode pair with the subtraction
scheme built on it, power counting for matrix and tensorial theories,
and a JSON document format with a CLI on top.
"""

from .graphs import (GraphError, OneGraph, TwoGraph, ValidationReport,
                     boundary, boundary_components, connected_components,
                     disjoint_union, euler_characteristic, faces,
                     from_combinatorial_map, from_coloured_graph,
                     internal_face_count, is_bridgeless, is_connected,
                     relabel, residue, skeleton,
                     subgraph_with_edges, to_complex, validate,
                     vertex_graph, vertex_graphs_multiset)
from .iso import (are_isomorphic, automorphism_count, canonical_code,
                  canonical_form, one_graph_automorphism_count,
                  one_graph_code, one_graphs_isomorphic)
from .rewrite import contract, insert, insertions, subgraphs
from .hopf import (Character, LaurentPoly, Renormalization, antipode,
                   antipode_of_element, character_inverse, convolve,
                   coproduct, coproduct_of_element, counit,
                   ms_projection, toy_ms_character)
from .series import (DressedType, TruncatedSeries, check_central_identity,
                     enumerate_diagrams)
from .models import (DivergenceReport, Theory, boundary_gurau_degree,
                     classify, divergent_set, genus, gurau_degree,
                     gurau_degree_open, infer_colouring,
                     matrix_degree_closed_form, open_jacket_degree, preset,
                     renormalizability_check, superficial_degree,
                     tensorial_degree_closed_form)
from .io import (document_to_graph, document_to_theory, dumps_graph,
                 dumps_theory, graph_to_document, loads_graph, loads_theory,
                 read_graph, read_theory, theory_to_document, to_dot,
                 write_graph)

__version__ = "0.1.0"
