#!/usr/bin/env python3
"""End-to-end walk through the running example.

Builds the skew-gentle algebra, its admissible presentation, the trivial
extension, the skew-Brauer graph, and cross-checks the main structural
identities, printing each object along the way.  Exits 1 when an
isomorphism test does not find "isomorphic", the symmetrising form
fails, some projective P[v] of the graph algebra does not have top and
socle v, or the projectives' dimensions do not sum to that of the
algebra, so that ``make examples`` gates the good-cut round trip and the
projective layers.
"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from skewbrauer import formats
from skewbrauer.basis import enumerate_basis, maximal_paths
from skewbrauer.brauer import (graph_from_skew_gentle, projective_layers,
                               skew_brauer_algebra, symmetric_form_check)
from skewbrauer.cartan import cartan
from skewbrauer.iso import are_isomorphic
from skewbrauer.skewgentle import admissible_presentation, make_presentation
from skewbrauer.trivext import (enumerate_good_cuts, quotient_by_cut,
                                trivial_extension)

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def main() -> int:
    failures = 0
    pres = make_presentation(formats.load(os.path.join(FIXTURES, "toy.bq")))
    print("== non-admissible presentation ==")
    print(formats.serialize_bq(pres.bound))

    adm = admissible_presentation(pres)
    print("== admissible presentation (7 vertices, 9 arrows) ==")
    print(formats.serialize_bq(adm))
    basis = enumerate_basis(adm)
    print(f"dimension {basis.dimension}, nilpotency bound {basis.nilpotency_bound}")
    print("socle classes:",
          ", ".join(p.label(adm.quiver) for p in maximal_paths(adm, basis)))
    print()

    t = trivial_extension(adm, basis)
    print("== trivial extension (12 arrows) ==")
    print(formats.serialize_bq(t.algebra))
    print("elementary cycles:")
    for copies in t.sg_tuple.signed_cycles:
        for p in copies:
            print("   ", p.label(t.algebra.quiver))
    print()

    graph = graph_from_skew_gentle(pres)
    print("== skew-Brauer graph of the algebra ==")
    print(formats.serialize_sbg(graph))
    alg = skew_brauer_algebra(graph)
    status = are_isomorphic(alg.algebra, t.algebra).status
    form = symmetric_form_check(alg)
    failures += (status != "isomorphic") + (not form)
    print("T(A^sg) ~ B_Gamma:", status)
    print("symmetric form:", "pass" if form else "fail")
    data = cartan(t.algebra, enumerate_basis(t.algebra))
    print(f"det C_q(T) = {data.det_q}; det C(T) = {data.det_ordinary}")
    print()

    print("== good cuts and recognition ==")
    for i, cut in enumerate(enumerate_good_cuts(t)):
        quotient = quotient_by_cut(t, cut)
        t2 = trivial_extension(quotient)
        ok = are_isomorphic(t2.algebra, t.algebra).status
        failures += ok != "isomorphic"
        print(f"cut {{{', '.join(cut.labels(t.algebra.quiver))}}}: "
              f"T(quotient) ~ T is {ok}")
    print()

    print("== projectives over the graph algebra ==")
    b2 = enumerate_basis(alg.algebra)
    total = 0
    for v in sorted(x.label for x in alg.quiver.vertices):
        pl = projective_layers(alg, v, b2)
        total += pl.dimension
        body = " | ".join(", ".join(layer) for layer in pl.layers)
        print(f"P[{v}]: dim {pl.dimension}: [{body}]")
        # the algebra is symmetric, so P[v] has simple top and socle S(v)
        if pl.top != v or pl.socle != v:
            failures += 1
            print(f"  [MISMATCH] top {pl.top} and socle {pl.socle}, expected {v}")
    if total != b2.dimension:
        failures += 1
        print(f"[MISMATCH] the projectives have dimension {total}, "
              f"the algebra {b2.dimension}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
