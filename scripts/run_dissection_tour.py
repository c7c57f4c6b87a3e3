#!/usr/bin/env python3
"""Dissection experiments: moves, reflections and Cartan determinants.

Replays the geometric side of the toolkit on the shipped dissections:
extracts presentations, applies a boundary move and a reflection, and
compares the closed determinant formula with the basis computation.
"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from skewbrauer import formats
from skewbrauer.basis import enumerate_basis
from skewbrauer.cartan import cartan
from skewbrauer.dissection import (contraction_addition, geometric_reflection,
                                   q_cartan_det_formula,
                                   skew_gentle_from_dissection,
                                   trivext_tuple_from_dissection)
from skewbrauer.iso import are_isomorphic
from skewbrauer.skewgentle import admissible_presentation, sg_bound_quiver
from skewbrauer.trivext import reflect

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def load(name):
    return formats.load(os.path.join(FIXTURES, name))


def main() -> int:
    mismatches = 0
    for name in ["annulus.dis", "torus.dis", "sec73_X.dis", "sec73_tauX.dis",
                 "pend.dis"]:
        d = load(name)
        pres = skew_gentle_from_dissection(d)
        adm = admissible_presentation(pres)
        data = cartan(adm, enumerate_basis(adm))
        formula = q_cartan_det_formula(d)
        tick = "ok" if str(formula) == str(data.det_q) else "MISMATCH"
        mismatches += tick == "MISMATCH"
        print(f"{name}: det_q by formula = {formula}; by basis = {data.det_q} [{tick}]")
    print()

    d = load("annulus.dis")
    moved = contraction_addition(d, 0, angle=0)
    a1 = sg_bound_quiver(trivext_tuple_from_dissection(d).as_sg_tuple())
    a2 = sg_bound_quiver(trivext_tuple_from_dissection(moved).as_sg_tuple())
    print("annulus boundary move keeps the tuple algebra:",
          are_isomorphic(a1, a2).status)

    refl_d = geometric_reflection(d, "1", "minus")
    geo = admissible_presentation(skew_gentle_from_dissection(refl_d))
    alg = admissible_presentation(
        reflect(skew_gentle_from_dissection(d), "1", "minus"))
    print("geometric reflection matches the presentation reflection:",
          are_isomorphic(geo, alg).status)
    print()
    print("reflected dissection:")
    print(formats.serialize_dis(refl_d))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
