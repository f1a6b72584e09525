"""The immutable record classes, one sample of each: no field can be set or
deleted, records of one class with equal fields are equal and hash equal,
records of two classes are not, and copies, deep copies and pickles are
equal to what they copy."""

import copy
import pickle

import pytest

from lukas.complete_sets import FamilyEntry, jankov_formula
from lukas.formulas import Implies, Mode, Record, Var
from lukas.kernel import (
    MP,
    MT,
    NS,
    RN,
    RS,
    AntiAxiom,
    Axiom,
    CheckReport,
    DeductiveSystem,
    Hypothesis,
    Inference,
    Sb,
    Sign,
    Statement,
    Step,
    asserts,
    rejects,
)
from lukas.prover import ProofResult, TmApp, TmConst, TmLam, TmVar
from lukas.semantics import KripkeModel, chain_frame

p, q = Var("p"), Var("q")
CHAIN = chain_frame(2)
INFERENCE = Inference((asserts(p),), (Step(asserts(p), Hypothesis()),))
HYP = TmVar(p, frozenset({"h1"}), "h1")
K = TmConst(Implies(p, Implies(q, p)), frozenset(), 0, (("p", p), ("q", q)))
APP = TmApp(Implies(q, p), frozenset({"h1"}), K, HYP)

SAMPLES = [
    Statement(Sign.REJECT, p),
    Axiom(), AntiAxiom(), Hypothesis(), MP(1, 2), MT(1, 2),
    Sb(1, (("p", q),)), RS(1), NS(1), RN(1),
    Step(rejects(q), RS(1)),
    INFERENCE,
    DeductiveSystem(Mode.INT, frozenset({p}), frozenset({q})),
    CheckReport(False, step=2, reason="formula-mismatch"),
    HYP, K, APP, TmLam(Implies(p, Implies(q, p)), frozenset(), "h1", p, APP),
    ProofResult(derivation=INFERENCE),
    CHAIN,
    KripkeModel.of(CHAIN, {"p": 0b10}),
    FamilyEntry(CHAIN, jankov_formula(CHAIN)),
]


def leaf_records(cls=Record):
    """The record classes of `lukas` that no other record class extends."""
    subclasses = [c for c in cls.__subclasses__() if c.__module__.startswith("lukas.")]
    if not subclasses:
        return {cls}
    return set().union(*map(leaf_records, subclasses))


def test_there_is_a_sample_of_every_record_class():
    assert leaf_records() == {type(r) for r in SAMPLES}


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
def test_a_record_is_an_immutable_value(record):
    cls = type(record)
    assert not hasattr(record, "__dict__")
    for name in cls.__match_args__ + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    fields = [getattr(record, name) for name in cls.__match_args__]
    rebuilt = cls(*fields)
    assert rebuilt is not record and rebuilt == record and hash(rebuilt) == hash(record)
    assert not rebuilt != record
    assert cls(**dict(zip(cls.__match_args__, fields))) == record
    for other in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record))):
        assert type(other) is cls and other == record and hash(other) == hash(record)


def test_records_of_two_classes_or_two_values_differ():
    assert MP(1, 2) != MT(1, 2)
    assert Axiom() != AntiAxiom()
    assert Step(asserts(p), Axiom()) != Step(asserts(p), Hypothesis())
    assert asserts(p) != rejects(p) and asserts(p) != asserts(q)
    assert asserts(p) != (Sign.ASSERT, p)
    assert MP(1, 2) != MP(2, 1) and ProofResult() != ProofResult(INFERENCE)
    assert ProofResult() == ProofResult(derivation=None, countermodel=None)


def test_a_record_prints_its_fields():
    assert repr(MP(1, 2)) == "MP(major=1, minor=2)"
    assert repr(Sb(3, (("p", q),))) == "Sb(source=3, mapping=(('p', Var(name='q')),))"
    assert repr(ProofResult()) == "ProofResult(derivation=None, countermodel=None)"
    assert repr(Axiom()) == "Axiom()"


def test_a_record_class_takes_exactly_its_fields():
    with pytest.raises(TypeError):
        Inference(())
    with pytest.raises(TypeError):
        Inference((), (), ())
    with pytest.raises(TypeError):
        Inference((), steps=(), extra=1)
    with pytest.raises(TypeError):
        Inference((), hypotheses=())
    with pytest.raises(TypeError):
        class Loose(Record):        # noqa: F841  (a record must declare __slots__)
            pass
