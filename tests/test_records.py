"""Record semantics: every record of the package is immutable, prints as
``Name(field=value, ...)`` and equals a rebuild from its own fields."""
import dataclasses
import importlib
import pkgutil

import pytest

import skewbrauer
from skewbrauer.basis import enumerate_basis
from skewbrauer.brauer import (classify_rep_type, projective_layers,
                               skew_brauer_algebra, validate_graph)
from skewbrauer.cartan import cartan
from skewbrauer.dissection import (_angles, quiver_from_dissection,
                                   trivext_tuple_from_dissection)
from skewbrauer.iso import _side_of, are_isomorphic
from skewbrauer.skewgentle import (admissible_presentation, is_skew_gentle,
                                   make_presentation)
from skewbrauer.trivext import enumerate_good_cuts, trivial_extension

from helpers import load


def _record_classes() -> dict[str, type]:
    """Every dataclass and NamedTuple defined in the package, by name."""
    out = {}
    for info in pkgutil.iter_modules(skewbrauer.__path__):
        module = importlib.import_module(f"skewbrauer.{info.name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and obj.__module__ == module.__name__
                    and (dataclasses.is_dataclass(obj)
                         or issubclass(obj, tuple) and hasattr(obj, "_fields"))):
                out[obj.__name__] = obj
    return out


RECORDS = _record_classes()

# the records used as dict keys or set members
HASHED = {"Vertex", "Arrow", "Path", "Relation", "Quiver", "BoundQuiver"}


@pytest.fixture(scope="module")
def records() -> dict[str, object]:
    """One instance of each record class but the mutable ``iso._Search``,
    read off the fixtures."""
    toy = load("toy.bq")
    pres = make_presentation(toy)
    adm = admissible_presentation(pres)
    t = trivial_extension(adm)
    g = load("fig1.sbg")
    alg = skew_brauer_algebra(g)
    basis = enumerate_basis(alg.algebra)
    d = load("torus.dis")
    return {
        "Vertex": toy.quiver.vertices[0],
        "Arrow": toy.quiver.arrows[0],
        "Quiver": toy.quiver,
        "Path": toy.relations[0].terms[0][1],
        "Relation": toy.relations[0],
        "BoundQuiver": adm,
        "Verdict": validate_graph(g),
        "BrauerVertex": g.graph.vertices[0],
        "BrauerEdge": g.graph.edges[0],
        "BrauerGraph": g.graph,
        "SkewBrauerGraph": g,
        "SkewBrauerAlgebra": alg,
        "Classification": classify_rep_type(g),
        "ProjectiveLayers": projective_layers(alg, alg.quiver.vertices[0].id, basis),
        "CartanData": cartan(alg.algebra, basis),
        "PathBasis": basis,
        "Arc": d.arcs[0],
        "Puncture": d.punctures[0],
        "OrbifoldDissection": d,
        "_Angle": _angles(d)[0],
        "DissectionQuiver": quiver_from_dissection(d),
        "DissectionTuple": trivext_tuple_from_dissection(d),
        "IsoResult": are_isomorphic(
            adm, admissible_presentation(make_presentation(load("toy.bq")))),
        "_Side": _side_of(adm),
        "SgCheck": is_skew_gentle(toy),
        "SkewGentlePresentation": pres,
        "SgQuiver": t.sg_tuple.sgq,
        "SgTuple": t.sg_tuple,
        "TrivialExtension": t,
        "CutSet": next(enumerate_good_cuts(t)),
    }


def _field_names(record) -> list[str]:
    if dataclasses.is_dataclass(record):
        return [f.name for f in dataclasses.fields(record)]
    return list(record._fields)


@pytest.mark.parametrize("name", sorted(set(RECORDS) - {"_Search"}))
def test_record_semantics(records, name):
    assert name in records, f"no instance of the record {name} to check"
    record = records[name]
    assert type(record) is RECORDS[name]
    fields = _field_names(record)
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(record, f, getattr(record, f))
    assert repr(record) == (
        f"{name}(" + ", ".join(f"{f}={getattr(record, f)!r}" for f in fields) + ")")
    rebuilt = type(record)(**{f: getattr(record, f) for f in fields})
    assert rebuilt is not record and rebuilt == record
    if name in HASHED:
        assert hash(rebuilt) == hash(record)


def test_dataclasses_are_the_records_that_need_one():
    """A plain record is a NamedTuple: ``@dataclass`` compiles the methods
    it generates, one ``exec`` each, on every import of the package."""
    assert {n for n, c in RECORDS.items() if dataclasses.is_dataclass(c)} == {
        "Quiver",              # __post_init__ checks, cached lookups
        "Relation",            # __post_init__ checks
        "BoundQuiver",         # __post_init__ checks, cached lookups, basis in __dict__
        "Arc",                 # __post_init__ checks the kind
        "SgTuple",             # __post_init__ fills multiplicities, cached derivations
        "SkewBrauerAlgebra",   # dataclasses.replace in tests and in the
        "TrivialExtension",    # benchmark's drop_binomial
        "ProjectiveLayers",    # dataclasses.replace in test_dissection.py
        "PathBasis",           # the field _engine: NamedTuple forbids a leading "_"
        "_Search",             # mutable search state
        "Vertex",              # fields read in the engine's hot loops, and
        "Arrow",               # a NamedTuple field read is slower than a
        "Path",                # dataclass one
    }
