"""Results are immutable records (``matrices.Record``): equal fields give
equal values and hashes, a record never equals a value of another type,
and construction takes its fields by position or keyword, with the
defaults and checks of each record. Every public value and result type
survives ``pickle``, ``copy.copy`` and ``copy.deepcopy``."""

import copy
import pickle
from fractions import Fraction

import pytest

from exacteig import (
    CharacteristicMatrix,
    Diagonalization,
    Eigenspace,
    EigenSystem,
    GaussianRational,
    GeneratorConfig,
    JordanChain,
    JordanForm,
    Matrix,
    OdeSolutionTerm,
    OpCounter,
    SpanBasis,
    Spectrum,
    TrigPart,
    Vector,
    build_chains,
    characteristic_matrix,
    charpoly,
    diagonalize,
    eigensystem,
    jordan_form,
    ode_general_solution,
)
from exacteig.matrices import Record

DEFECTIVE = Matrix([[2, 1, 0], [0, 2, 0], [0, 0, 3]])
SPECTRUM = Spectrum({2: 2, 3: 1})
ROTATION = Matrix([[1, -2], [2, 1]])
HALF_I = GaussianRational(Fraction(1, 2), Fraction(-3, 4))


def _records():
    """One computed instance of each record class."""
    a = Matrix([[2, 1, 0], [0, 2, 0], [0, 0, 3]])
    system = eigensystem(a, SPECTRUM)
    plain = ode_general_solution(a, SPECTRUM)[0]
    trig = next(t for t in ode_general_solution(ROTATION, realify=True)
                if t.trig_part is not None)
    return [
        characteristic_matrix(a, 2),
        system.spaces[0],
        system,
        diagonalize(Matrix([[1, 2], [2, 1]])),
        trig.trig_part,
        plain,
        trig,
        build_chains(a, 2)[0],
        jordan_form(a, SPECTRUM),
        SpanBasis((a.column(0), a.column(2)), 3),
        GeneratorConfig(3, SPECTRUM, 7, jordan_blocks={2: [2]}),
    ]


RECORDS = _records()
RECORD_IDS = [type(r).__name__ + ("+trig" if getattr(r, "trig_part", None)
                                  else "") for r in RECORDS]


def _fields(record):
    return [getattr(record, name) for name in record.__slots__]


def test_every_record_class_is_covered():
    assert {type(r) for r in RECORDS} == {
        CharacteristicMatrix, Eigenspace, EigenSystem, Diagonalization,
        TrigPart, OdeSolutionTerm, JordanChain, JordanForm, SpanBasis,
        GeneratorConfig}
    assert all(isinstance(r, Record) for r in RECORDS)


@pytest.mark.parametrize("record", RECORDS, ids=RECORD_IDS)
class TestRecordSemantics:
    def test_equal_fields_give_equal_values_and_hashes(self, record):
        twin = type(record)(*_fields(record))
        assert twin == record and not twin != record
        assert hash(twin) == hash(record)

    def test_another_type_is_never_equal(self, record):
        same_slots = type("Twin", (Record,), {"__slots__": record.__slots__})
        assert record != same_slots(*_fields(record))
        assert record != tuple(_fields(record))
        assert record != _fields(record)

    def test_fields_cannot_be_set_or_deleted(self, record):
        for name in record.__slots__:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.other = 1

    def test_repr_names_the_class_and_its_fields(self, record):
        body = ", ".join(f"{name}={value!r}" for name, value
                         in zip(record.__slots__, _fields(record)))
        assert repr(record) == f"{type(record).__name__}({body})"

    def test_keyword_construction(self, record):
        fields = dict(zip(record.__slots__, _fields(record)))
        assert type(record)(**fields) == record
        first, *rest = record.__slots__
        assert type(record)(fields[first], **{n: fields[n] for n in rest}) \
            == record

    def test_missing_extra_or_repeated_fields_raise(self, record):
        cls, fields = type(record), _fields(record)
        named = dict(zip(record.__slots__, fields))
        first = record.__slots__[0]
        with pytest.raises(TypeError):
            cls(**{n: v for n, v in named.items() if n != first})
        with pytest.raises(TypeError):
            cls(*fields, 0)
        with pytest.raises(TypeError):
            cls(*fields, unknown=0)
        with pytest.raises(TypeError):
            cls(*fields, **{first: fields[0]})


def test_defaults():
    term = RECORDS[RECORD_IDS.index("OdeSolutionTerm")]
    short = OdeSolutionTerm(term.coefficient_label, term.vector_polynomial,
                            term.exponent)
    assert short.trig_part is None and short == term
    config = GeneratorConfig(dim=3, spectrum=SPECTRUM, seed=7)
    assert (config.entry_bound, config.jordan_blocks) == (3, None)
    assert config == GeneratorConfig(3, SPECTRUM, 7, 3, None)


def test_construction_normalizes_the_fields():
    a = DEFECTIVE
    assert SpanBasis([a.column(0)], 3).vectors == (a.column(0),)
    config = GeneratorConfig(3, {2: 2, 3: 1}, 7, jordan_blocks={2: [2]})
    assert config.spectrum == SPECTRUM
    assert config.jordan_blocks == ((GaussianRational(2), (2,)),)


# the other rejections are tested in test_verification.py
@pytest.mark.parametrize("build,message", [
    (lambda: SpanBasis((), 0), "ambient dimension must be positive"),
    (lambda: GeneratorConfig(0, SPECTRUM, 1), "dimension must be positive"),
    (lambda: GeneratorConfig(3, SPECTRUM, 1, 0),
     "entry bound must be positive"),
], ids=["span-ambient", "config-dim", "config-bound"])
def test_validation_rejects_bad_input(build, message):
    with pytest.raises(ValueError, match=message):
        build()


class TestOpCounter:
    def test_stays_mutable_and_unhashable(self):
        ops = OpCounter()
        ops.scalar_mults += 2
        ops.scalar_divs = 5
        assert ops == OpCounter(2, 0, 5) == OpCounter(scalar_divs=5,
                                                      scalar_mults=2)
        assert ops != OpCounter() and ops != (2, 0, 5)
        with pytest.raises(TypeError):
            hash(ops)

    def test_repr_and_dict(self):
        ops = OpCounter(1, 2, 3)
        assert repr(ops) == \
            "OpCounter(scalar_mults=1, scalar_adds=2, scalar_divs=3)"
        assert ops.as_dict() == {
            "scalar_mults": 1, "scalar_adds": 2, "scalar_divs": 3}
        assert ops.total == 6


def _values():
    """One instance of each public value type, then every record."""
    poly = charpoly(DEFECTIVE)
    return [
        HALF_I,
        Matrix([[HALF_I, 1], [0, GaussianRational(0, 2)]]),
        DEFECTIVE,
        Vector([HALF_I, 3]),
        DEFECTIVE.row(1),
        poly,
        SPECTRUM,
        OpCounter(1, 2, 3),
        *RECORDS,
    ]


VALUES = _values()


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
@pytest.mark.parametrize("value", VALUES,
                         ids=[type(v).__name__ for v in VALUES])
def test_pickle_round_trip(value, protocol):
    back = pickle.loads(pickle.dumps(value, protocol))
    assert type(back) is type(value)
    assert back == value and repr(back) == repr(value)


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy])
@pytest.mark.parametrize("value", VALUES,
                         ids=[type(v).__name__ for v in VALUES])
def test_copy_round_trip(value, duplicate):
    back = duplicate(value)
    assert type(back) is type(value)
    assert back == value and repr(back) == repr(value)


def test_a_copied_matrix_keeps_no_fact():
    a = Matrix([[2, 1, 0], [0, 2, 0], [0, 0, 3]])
    jordan_form(a, SPECTRUM)
    assert a._charpoly is not None and a._jordan is not None
    for back in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
        assert back == a
        for name in ("_charpoly", "_eigenvectors", "_jordan"):
            assert getattr(back, name, None) is None
        assert jordan_form(back, SPECTRUM) == jordan_form(a, SPECTRUM)
