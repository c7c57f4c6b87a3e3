"""Exact-arithmetic toolkit for skew-Brauer graph algebras.

Builds quivers and relation ideals from graphs and orbifold dissections,
computes path bases, socles, trivial extensions, cuts, reflections and
Cartan invariants, and classifies representation type.
"""
from .basis import PathBasis, enumerate_basis, maximal_paths
from .brauer import (BrauerEdge, BrauerGraph, BrauerVertex, Classification,
                     ProjectiveLayers, SkewBrauerAlgebra, SkewBrauerGraph,
                     classify_rep_type, graph_from_skew_gentle,
                     is_skew_brauer_tree, projective_layers,
                     skew_brauer_algebra, symmetric_form_check, validate_graph)
from .cartan import CartanData, IntPoly, cartan, det_fraction_free
from .dissection import (Arc, OrbifoldDissection, Puncture,
                         contraction_addition, geometric_reflection,
                         q_cartan_det_formula, quiver_from_dissection,
                         skew_gentle_from_dissection,
                         trivext_tuple_from_dissection, validate_dissection)
from .errors import (InfiniteDimensional, NotAdmissible, NotSkewGentle,
                     ParseError, SkewBrauerError, Undecided, UnsupportedClass)
from .iso import IsoResult, are_isomorphic
from .quiver import (Arrow, BoundQuiver, Path, Quiver, Relation, Verdict,
                     Vertex, is_gentle, is_locally_gentle, stationary)
from .skewgentle import (SgTuple, SkewGentlePresentation,
                         admissible_presentation, auxiliary_gentle,
                         gentle_base, is_skew_gentle, loop_presentation,
                         make_presentation, sg_bound_quiver, sg_ideal,
                         sg_quiver)
from .trivext import (CutSet, TrivialExtension, enumerate_admissible_cuts,
                      enumerate_good_cuts, is_admissible_cut, quotient_by_cut,
                      reflect, trivial_extension)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
