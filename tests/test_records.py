"""The result records (`characters.Record`): construction, equality,
hashing, ordering, immutability and repr, as callers read them."""

import pytest

from spaceforms.characters import (CyclicLabel, Irrep, IrrepLabel, Record,
                                   character_table)
from spaceforms.induction import (InducedDecomposition, MonomialVerdict, induce_twist,
                                  verify_monomial_rep)
from spaceforms.mckay import (CompactifiedDiagram, McKayGraph, compactified_diagram,
                              mckay_graph)
from spaceforms.spectra import (DegeneracySeries, LensTorsion, SpectralSum,
                                SpectralWeight, TwistSpec, degeneracy_series,
                                lens_torsion, spectral_sum)
from spaceforms.theorems import (CheckResult, MatrixComparison, RowComparison,
                                 SolutionMatrix, SunadaVerdict,
                                 compare_reference_matrices, solve_irrep_quantities,
                                 sunada_check)

FROZEN = (IrrepLabel, Irrep, CyclicLabel, InducedDecomposition, MonomialVerdict,
          McKayGraph, TwistSpec, DegeneracySeries, SpectralWeight, SpectralSum,
          LensTorsion)
MUTABLE = (CheckResult, SolutionMatrix, RowComparison, MatrixComparison, SunadaVerdict,
           CompactifiedDiagram)


def one_of_each(G):
    """An instance of every record class, as the library returns it."""
    series = degeneracy_series(G, "2s", 10)
    return {
        IrrepLabel: character_table(G).irreps[3].label,
        Irrep: character_table(G).irreps[3],
        CyclicLabel: character_table(G.cyclic_subgroup("T").group).irreps[1].label,
        InducedDecomposition: induce_twist(G, "T", 1),
        MonomialVerdict: verify_monomial_rep(G, "T", 1),
        McKayGraph: mckay_graph(G),
        CompactifiedDiagram: compactified_diagram(G),
        TwistSpec: series.twist,
        DegeneracySeries: series,
        SpectralWeight: SpectralWeight.heat(0.5),
        SpectralSum: spectral_sum(series, SpectralWeight.raw()),
        LensTorsion: lens_torsion(4, 1),
        CheckResult: CheckResult("key", True),
        SolutionMatrix: solve_irrep_quantities(G, "nonspinor",
                                               [(0, "T"), (2, "T"), (4, "T"), (2, "R")]),
        RowComparison: RowComparison("2s", "exact"),
        MatrixComparison: compare_reference_matrices(G, "spinor"),
        SunadaVerdict: sunada_check(G, G.cyclic_subgroup("S"), G.cyclic_subgroup("T"),
                                    1, 5, 20),
    }


def test_every_record_class_is_frozen_or_mutable_as_listed():
    library = {cls for cls in Record.__subclasses__()
               if cls.__module__.startswith("spaceforms.")}
    assert library == set(FROZEN) | set(MUTABLE)


def test_frozen_records_refuse_assignment_and_mutable_ones_take_it(g2t):
    for cls, record in one_of_each(g2t).items():
        assert type(record) is cls
        name = cls._fields[0]
        if cls in FROZEN:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(record, name, None)
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                delattr(record, name)
        else:
            setattr(record, name, getattr(record, name))
            with pytest.raises(TypeError, match="unhashable"):
                hash(record)


def test_frozen_records_hash_by_their_fields(g2t):
    records = one_of_each(g2t)
    for cls in FROZEN:
        record = records[cls]
        copy = cls(*(getattr(record, f) for f in cls._fields))
        assert copy == record and hash(copy) == hash(record)
        assert len({record, copy}) == 1


def test_construction_by_position_keyword_and_default(g2t):
    assert TwistSpec(g2t, terms=((3, 1),)) == TwistSpec(g2t, ((3, 1),))
    assert SpectralWeight("raw").param is None
    assert RowComparison("2s", "exact") == RowComparison("2s", "exact", None, None)
    assert MonomialVerdict().witness == "" and MonomialVerdict()
    assert not MonomialVerdict(witness="[-E]")
    assert CheckResult("k", True).detail == ""
    for args, kwargs in (((1, True, 0, 5), {}), ((1, True), {}), ((1, True, 0), {"x": 1}),
                         ((1, True, 0), {"spinor": False})):
        with pytest.raises(TypeError):
            IrrepLabel(*args, **kwargs)


def test_each_matrix_comparison_has_its_own_rows(g2t):
    a = compare_reference_matrices(g2t, "spinor")
    b = compare_reference_matrices(g2t, "nonspinor")
    assert a.rows and b.rows and a.rows is not b.rows


def test_irrep_labels_order_by_dimension_then_spinor_then_primes():
    labels = [IrrepLabel(3, False, 0), IrrepLabel(2, True, 1), IrrepLabel(1, False, 2),
              IrrepLabel(2, True, 0), IrrepLabel(1, False, 0), IrrepLabel(2, False, 0)]
    assert [str(x) for x in sorted(labels)] == ["1", "1''", "2", "2s", "2s'", "3"]
    assert IrrepLabel(1, True, 0) < IrrepLabel(2, False, 0)
    assert IrrepLabel(2, False, 0) > IrrepLabel(1, True, 0)
    with pytest.raises(TypeError):
        IrrepLabel(1, False, 0) < CyclicLabel(1, False)


def test_records_of_different_classes_are_never_equal():
    class Twin(Record, frozen=True):
        dimension: int
        spinor: bool
        primes: int

    assert Twin(1, False, 0) != IrrepLabel(1, False, 0)
    assert IrrepLabel(1, False, 0) != (1, False, 0)
    assert IrrepLabel(1, False, 0) == IrrepLabel(1, False, 0) != IrrepLabel(1, False, 1)


def test_a_degeneracy_series_equals_on_its_entries_alone(g2t):
    a = DegeneracySeries(TwistSpec.coerce(g2t, "2s"), (0, 2, 0))
    b = DegeneracySeries(TwistSpec.coerce(g2t, "1"), (0, 2, 0))
    assert a == b and hash(a) == hash((0, 2, 0)) == hash(b)
    assert a != DegeneracySeries(a.twist, (0, 2, 1))


def test_repr_names_the_class_and_its_fields():
    assert repr(IrrepLabel(2, True, 1)) == "IrrepLabel(dimension=2, spinor=True, primes=1)"
    assert repr(MonomialVerdict()) == "MonomialVerdict(witness='')"
    assert repr(SpectralWeight.heat(0.5)) == "SpectralWeight(kind='heat', param=0.5)"
