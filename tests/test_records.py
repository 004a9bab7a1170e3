"""The library's record classes behave as the frozen and mutable value
types they are: construction, equality, hashing, repr and assignment."""

import dataclasses
import pickle
from fractions import Fraction

import pytest

from tropalg import (
    Algebra,
    Domain,
    ExtScalar,
    Infeasible,
    Interval,
    IntervalBound,
    LpProblem,
    NEG_INF,
    OpCounts,
    Optimal,
    POS_INF,
    Q_CLASSICAL,
    Q_MIN_PLUS,
    SemiringKind,
    SimplexStats,
    TropMatrix,
    Unbounded,
    WeightedGraph,
    Z_MIN_PLUS,
)
from tropalg.mathpar.interp import Binding, EmptyMatrix, RenderOptions, Session, UndefinedClosure

GRAPH_Z = TropMatrix(1, 1, (ExtScalar(0),), Z_MIN_PLUS)
GRAPH_Q = TropMatrix(1, 1, (ExtScalar(0),), Q_MIN_PLUS)
HALF = (Fraction(1), Fraction(1, 2))
EMPTY_GROUPS = {name: () for name in ("a_le", "b_le", "a_eq", "b_eq", "a_ge", "b_ge")}

# Per record: its field names in order, a value for each, the fewest
# arguments that build it and the defaults they leave, another value for
# one field (None for a record without fields), the repr of the first
# value, and whether it is frozen. The reprs are those the records had as
# dataclasses.
RECORDS = [
    (ExtScalar, ("finite", "inf_sign"), (3, 0), (3,), {"inf_sign": 0}, {"finite": 4},
     "ExtScalar(finite=3, inf_sign=0)", True),
    (Algebra, ("kind", "domain"), (SemiringKind.MAX_PLUS, Domain.Z),
     (SemiringKind.MAX_PLUS, Domain.Z), {}, {"domain": Domain.Q},
     "Algebra(kind=<SemiringKind.MAX_PLUS: 'max-plus'>, domain=<Domain.Z: 'Z'>)", True),
    (OpCounts, ("adds", "muls"), (2, 3), (), {"adds": 0, "muls": 0}, {"muls": 4},
     "OpCounts(adds=2, muls=3)", False),
    (TropMatrix, ("rows", "cols", "entries", "alg"), (1, 2, (ExtScalar(0), POS_INF), Z_MIN_PLUS),
     (1, 2, (ExtScalar(0), POS_INF), Z_MIN_PLUS), {}, {"entries": (ExtScalar(0), ExtScalar(1))},
     "TropMatrix(rows=1, cols=2, entries=(ExtScalar(finite=0, inf_sign=0), "
     "ExtScalar(finite=None, inf_sign=1)), "
     "alg=Algebra(kind=<SemiringKind.MIN_PLUS: 'min-plus'>, domain=<Domain.Z: 'Z'>))", True),
    (IntervalBound, ("lower", "upper", "lower_closed", "upper_closed"),
     (NEG_INF, ExtScalar(2), False, True), (NEG_INF, ExtScalar(2), False, True), {},
     {"upper_closed": False},
     "IntervalBound(lower=ExtScalar(finite=None, inf_sign=-1), "
     "upper=ExtScalar(finite=2, inf_sign=0), lower_closed=False, upper_closed=True)", True),
    (WeightedGraph, ("adjacency",), (GRAPH_Z,), (GRAPH_Z,), {}, {"adjacency": GRAPH_Q},
     "WeightedGraph(adjacency=TropMatrix(rows=1, cols=1, "
     "entries=(ExtScalar(finite=0, inf_sign=0),), "
     "alg=Algebra(kind=<SemiringKind.MIN_PLUS: 'min-plus'>, domain=<Domain.Z: 'Z'>)))", True),
    (LpProblem, ("c", "a_le", "b_le", "a_eq", "b_eq", "a_ge", "b_ge", "sense"),
     (HALF, (), (), (), (), (), (), "max"), (HALF,), {**EMPTY_GROUPS, "sense": "max"},
     {"sense": "min"},
     "LpProblem(c=(Fraction(1, 1), Fraction(1, 2)), a_le=(), b_le=(), a_eq=(), b_eq=(), "
     "a_ge=(), b_ge=(), sense='max')", True),
    (Optimal, ("x", "objective"), ((Fraction(1, 2),), Fraction(3)),
     ((Fraction(1, 2),), Fraction(3)), {}, {"objective": Fraction(4)},
     "Optimal(x=(Fraction(1, 2),), objective=Fraction(3, 1))", True),
    (Infeasible, (), (), (), {}, None, "Infeasible()", True),
    (Unbounded, (), (), (), {}, None, "Unbounded()", True),
    (SimplexStats, ("pivots", "reduced_costs"), (4, (Fraction(1),)), (),
     {"pivots": 0, "reduced_costs": ()}, {"pivots": 5},
     "SimplexStats(pivots=4, reduced_costs=(Fraction(1, 1),))", False),
    (Interval, ("lo", "hi", "lo_closed", "hi_closed", "is_empty"),
     (None, Fraction(1), False, True, False), (None, Fraction(1), False, True),
     {"is_empty": False}, {"hi_closed": False},
     "Interval(lo=None, hi=Fraction(1, 1), lo_closed=False, hi_closed=True, is_empty=False)",
     True),
    (UndefinedClosure, ("sign",), (1,), (1,), {}, {"sign": -1}, "UndefinedClosure(sign=1)", True),
    (EmptyMatrix, (), (), (), {}, None, "EmptyMatrix()", True),
    (Binding, ("value", "space"), (ExtScalar(1), "Q"), (ExtScalar(1), "Q"), {}, {"space": "R64"},
     "Binding(value=ExtScalar(finite=1, inf_sign=0), space='Q')", True),
    (Session, ("space_name", "algebra", "poly_var", "bindings", "output"),
     ("Q", Q_CLASSICAL, None, {}, []), (),
     {"space_name": "Q", "algebra": Q_CLASSICAL, "poly_var": None, "bindings": {}, "output": []},
     {"space_name": "R64"},
     "Session(space_name='Q', algebra=Algebra(kind=<SemiringKind.CLASSICAL: 'classical'>, "
     "domain=<Domain.Q: 'Q'>), poly_var=None, bindings={}, output=[])", False),
    (RenderOptions, ("fmt", "show_objective"), ("latex", True), (),
     {"fmt": "plain", "show_objective": False}, {"fmt": "plain"},
     "RenderOptions(fmt='latex', show_objective=True)", True),
]

by_class = pytest.mark.parametrize(
    "cls, fields, values, required, defaults, other, text, frozen",
    RECORDS,
    ids=[r[0].__name__ for r in RECORDS],
)


def test_every_record_is_covered():
    assert len({r[0] for r in RECORDS}) == 17


@by_class
def test_construction_by_position_and_by_keyword(cls, fields, values, required, defaults, other,
                                                 text, frozen):
    for record in (cls(*values), cls(**dict(zip(fields, values)))):
        assert tuple(getattr(record, name) for name in fields) == values


@by_class
def test_omitted_fields_take_their_defaults(cls, fields, values, required, defaults, other,
                                            text, frozen):
    record = cls(*required)
    assert {name: getattr(record, name) for name in defaults} == defaults
    assert len(required) + len(defaults) == len(fields)


@by_class
def test_equality_is_same_type_and_equal_fields(cls, fields, values, required, defaults, other,
                                                text, frozen):
    record = cls(*values)
    assert record == cls(*values) and not record != cls(*values)
    if other is not None:
        changed = cls(**{**dict(zip(fields, values)), **other})
        assert record != changed and not record == changed
    assert record != values and not record == values
    # Infeasible and Unbounded have the same (no) fields.
    stranger = Unbounded() if cls is Infeasible else Infeasible()
    assert record != stranger and not record == stranger


@by_class
def test_frozen_records_hash_as_their_field_tuple(cls, fields, values, required, defaults, other,
                                                  text, frozen):
    record = cls(*values)
    if frozen:
        assert hash(record) == hash(values)
    else:
        with pytest.raises(TypeError):
            hash(record)


@by_class
def test_repr_names_every_field(cls, fields, values, required, defaults, other, text, frozen):
    assert repr(cls(*values)) == text


@by_class
def test_frozen_records_refuse_assignment(cls, fields, values, required, defaults, other, text,
                                          frozen):
    record = cls(*values)
    name = fields[0] if fields else "anything"
    if frozen:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert repr(record) == text
    else:
        setattr(record, name, 0)
        assert getattr(record, name) == 0


@by_class
def test_records_survive_pickling(cls, fields, values, required, defaults, other, text, frozen):
    record = cls(*values)
    assert pickle.loads(pickle.dumps(record)) == record


@by_class
def test_records_answer_the_dataclasses_functions(cls, fields, values, required, defaults,
                                                  other, text, frozen):
    record = cls(*values)
    assert dataclasses.is_dataclass(record)
    assert tuple(f.name for f in dataclasses.fields(record)) == fields
    assert dataclasses.replace(record) == record
    if other is not None:
        assert dataclasses.replace(record, **other) == cls(**{**dict(zip(fields, values)), **other})


def test_each_session_gets_its_own_bindings_and_output():
    first, second = Session(), Session()
    first.bindings["x"] = Binding(ExtScalar(1), "Q")
    first.output.append("1")
    assert (second.bindings, second.output) == ({}, [])
    assert first.bindings is not second.bindings and first.output is not second.output
