"""Exact-arithmetic toolkit for bicolored maps on surfaces.

Maps are triples of fixed-point-free involutions (non-oriented) or pairs
of permutations (oriented).  On top of the structural operations the
package provides the measure of non-orientability mon(M), the twist
bijection between top-degree pairs and orientable maps, embedding counts
into Young diagrams, a desk-scale Jack character oracle, and a batch
verification CLI tying them together.
"""

from .algebra import GAMMA, ONE, ZERO, GammaPoly, Sqrt2, SQRT2, gamma_of
from .bijection import BijectionResult, phi, phi_inverse
from .diagrams import (MultiRect, Partition, count_embeddings,
                       normalized_embeddings, ogs_full, top_map_sums)
from .enumeration import (all_maps, all_pairs, conservative_maps,
                          conservative_one_face, group_by, involutions,
                          liberal_one_face)
from .jack import ch, ch_stanley, jack_in_p, stanley_special
from .maps import (BicoloredGraph, BicoloredGraphClass, EdgeKind, MapError,
                   MapStructure, NonOrientedMap, bicolored_graph,
                   canonical_form, classify_edge, faces, graph_class,
                   is_orientable, load_fixture, map_from_json_obj,
                   map_to_json_obj, remove_edge, structure, twist_many)
from .mon import (history_weight, is_top_degree_map, is_top_degree_pair,
                  lemma_equivalence_check, mon, mon_top)
from .oriented import OrientedMap, side_label
from .verify import Report, SUITES, report_render, run_suite

__version__ = "0.1.0"
