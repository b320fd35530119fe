"""The record classes: constructors, field order, equality, hashing and
frozenness, and an import that generates no code."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

import strandhopf
from strandhopf import fixtures
from strandhopf.graphs import (CellComplexReport, Face, OneGraph, TwoGraph,
                               ValidationReport, boundary)
from strandhopf.models import (DivergenceReport, RenormalizabilityReport,
                               Theory)
from strandhopf.rewrite import InsertionMap, Subgraph
from strandhopf.series import (CentralIdentityReport, ConnectedClass,
                               DressedType, SeriesTerm, TruncatedSeries)

FISH = fixtures.fish(1, 2)
FISH_FIELDS = (FISH.vertices, FISH.half_edges, FISH.strands, FISH.nu,
               FISH.mu, FISH.iota, FISH.sigma1, FISH.sigma2)
BOUNDARY = boundary(FISH)
BOUNDARY_FIELDS = (BOUNDARY.vertices, BOUNDARY.half_edges, BOUNDARY.attach,
                   BOUNDARY.pairing)

# class, field names in order, the defaults of the trailing fields
RECORDS = [
    (OneGraph, ("vertices", "half_edges", "attach", "pairing"), {}),
    (TwoGraph, ("vertices", "half_edges", "strands", "nu", "mu", "iota",
                "sigma1", "sigma2"), {}),
    (ValidationReport, ("valid", "violations"), {}),
    (Face, ("kind", "sections"), {}),
    (CellComplexReport, ("cells", "covers", "pure", "two_dimensional"), {}),
    (Subgraph, ("parent", "edges"), {}),
    (InsertionMap, ("source", "target", "on_half_edges", "on_strands"), {}),
    (DressedType, ("graph", "weight", "cost", "colour", "parity", "orient",
                   "name"),
     {"weight": Fraction(0), "cost": 0, "colour": None, "parity": None,
      "orient": None, "name": ""}),
    (ConnectedClass, ("graph", "code", "automorphisms", "n_edges",
                      "degree"), {}),
    (SeriesTerm, ("parts", "union", "automorphisms", "n_edges"), {}),
    (TruncatedSeries, ("max_edges", "connected", "terms"), {}),
    (CentralIdentityReport, ("passed", "max_edges", "universe_size",
                             "pairs_checked", "mismatches",
                             "multi_trace_vertex_classes",
                             "bridgeless_only"), {}),
    (Theory, ("name", "klass", "dimension", "types", "edge_weights", "rank",
              "zeta"), {"rank": None, "zeta": None}),
    (DivergenceReport, ("code", "n_vertices", "n_edges", "n_internal_faces",
                        "n_external", "boundary_code", "degree", "divergent",
                        "bridgeless", "genus", "gurau", "gurau_capped",
                        "boundary_gurau"),
     {"genus": None, "gurau": None, "gurau_capped": None,
      "boundary_gurau": None}),
    (RenormalizabilityReport, ("theory", "max_edges", "n_checked",
                               "n_divergent", "max_external", "order_bound",
                               "closed_form_mismatches", "invariant_clashes",
                               "passed"), {}),
]
FROZEN = {Face, Theory, DressedType, Subgraph, InsertionMap}
BY_IDENTITY = {OneGraph, TwoGraph}


def values(cls, names, tag=0):
    """Distinct immutable field values (valid ones for the graphs)."""
    if cls is TwoGraph:
        return FISH_FIELDS
    if cls is OneGraph:
        return BOUNDARY_FIELDS
    return tuple(("value", tag, k) for k in range(len(names)))


@pytest.mark.parametrize("cls,names,defaults", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_construction_and_field_order(cls, names, defaults):
    vals = values(cls, names)
    by_position = cls(*vals)
    by_keyword = cls(**dict(zip(names, vals)))
    for rec in (by_position, by_keyword):
        assert [getattr(rec, k) for k in names] == list(vals)
        assert list(vars(rec))[:len(names)] == list(names)
    required = vals[:len(names) - len(defaults)]
    bare = cls(*required)
    assert {k: getattr(bare, k) for k in defaults} == defaults
    with pytest.raises(TypeError):
        cls(*vals, "one too many")
    with pytest.raises(TypeError):
        cls(**dict(zip(names, vals)), not_a_field=1)


@pytest.mark.parametrize("cls,names,defaults", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_equality_and_hashing(cls, names, defaults):
    vals = values(cls, names)
    a, b = cls(*vals), cls(*vals)
    assert a == a
    if cls in BY_IDENTITY:
        assert a != b
        assert hash(a) != hash(b)
        return
    other = cls(*values(cls, names, tag=1))
    assert a == b and not a != b
    assert a != other
    assert a != vals
    if cls not in FROZEN:
        with pytest.raises(TypeError):
            hash(a)
        setattr(a, names[0], "changed")
        assert a.__dict__[names[0]] == "changed"
        return
    assert hash(a) == hash(b)
    assert len({a, b, other}) == 2
    for k in names:
        with pytest.raises(AttributeError):
            setattr(a, k, "changed")
        with pytest.raises(AttributeError):
            delattr(a, k)
    with pytest.raises(AttributeError):
        a.not_a_field = 1
    assert [getattr(a, k) for k in names] == list(vals)


def test_divergence_report_fields_in_order():
    names = ["code", "n_vertices", "n_edges", "n_internal_faces",
             "n_external", "boundary_code", "degree", "divergent",
             "bridgeless", "genus", "gurau", "gurau_capped", "boundary_gurau"]
    rep = DivergenceReport(*values(DivergenceReport, names[:9]))
    assert list(vars(rep)) == names


def test_instance_memos_still_write_to_frozen_records():
    dt = DressedType(BOUNDARY)
    assert dt.plain_code() is dt.plain_code()
    assert "_plain_code" in vars(dt)
    assert hash(dt) == hash(DressedType(BOUNDARY))


def test_cli_import_loads_no_code_generation_modules():
    # -S keeps site-packages (and whatever they import) out; only the
    # source tree is put on the path
    src = os.path.dirname(os.path.dirname(strandhopf.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import strandhopf.cli; "
            "print(' '.join(sorted({'dataclasses', 'inspect'} "
            "& set(sys.modules))))")
    run = subprocess.run([sys.executable, "-S", "-c", code, src],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == []
