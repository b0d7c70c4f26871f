"""The package's records: importing the package generates no code, equal
records compare and hash equal, frozen ones refuse assignment, and every
record that checks itself raises on a bad construction, the copies the
reduction transformers make included.  Every `base.Record` in the package
is a case of the equality, hash and assignment test, and every exception
the package defines descends from `base.EndoapproxError` and from the
built-in exception callers catch it by."""

import builtins
import importlib
import pkgutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import endoapprox
from endoapprox import reduction
from endoapprox.base import EndoapproxError, Record
from endoapprox.approx import derive_ledger
from endoapprox.dirichlet import ApproxResult, DirichletError
from endoapprox.ledger import ConstantLedger, LedgerEntry
from endoapprox.model import GeneratorSet, ModelError, ModelPoint, ModelSpace
from endoapprox.morphisms import (
    AmbientSpec,
    BlockMorphism,
    MorphismError,
    SpecialCertificate,
    WeightedCertificate,
    is_weighted,
)
from endoapprox.reduction import InclusionWitness, WitnessError, gamma_embed, point_project, weighted_witness
from endoapprox.rings import (
    ProductElement,
    ProductRingSpec,
    RingElement,
    RingError,
    RingSpec,
    gaussian_ring,
    integer_ring,
)
from endoapprox.scenario import Scenario, load_scenario
from endoapprox.thresholds import MuBounds, ThresholdError, VarietyCard

SRC = Path(__file__).resolve().parents[1] / "src"
Z_BASIC = SRC / "endoapprox" / "scenarios" / "z-basic.json"


def test_import_loads_no_code_generator():
    code = "import sys, endoapprox; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], cwd=SRC, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def _pz():
    return ProductRingSpec((integer_ring(),))


def _phi():
    """(2 | 5) over Z, weighted at scale 2 by its first column."""
    return BlockMorphism.from_coords(_pz(), (2,), (1,), [[[[2], [5]]]])


def _weighted():
    return WeightedCertificate(morphism=_phi(), scale=2, columns=((0,),), slack_sq=F(25, 4))


def _special():
    phi_eight = _phi().hstack(BlockMorphism.from_coords(_pz(), (1,), (1,), [[[[8]]]]))
    return SpecialCertificate(morphism=phi_eight, weighted=_weighted(), slack_sq=F(64, 25))


def _space():
    return ModelSpace(AmbientSpec(ProductRingSpec((gaussian_ring(),)), (2,)), (1,))


# class: (a builder called twice for two equal records, a builder of an
# unequal one, a field to assign to, or None for a mutable class)
RECORDS = {
    RingSpec: (gaussian_ring, integer_ring, "tag"),
    RingElement: (lambda: gaussian_ring().element([1, F(2, 3)]), lambda: gaussian_ring().element([1, 2]), "den"),
    ProductRingSpec: (lambda: ProductRingSpec((gaussian_ring(),)), _pz, "factors"),
    ProductElement: (
        lambda: ProductRingSpec((gaussian_ring(),)).from_coords([1, 2]),
        lambda: ProductRingSpec((gaussian_ring(),)).from_coords([2, 1]),
        "parts",
    ),
    AmbientSpec: (lambda: AmbientSpec(_pz(), (2,)), lambda: AmbientSpec(_pz(), (3,)), "counts"),
    ModelSpace: (_space, lambda: _space().with_counts((1,)), "free_ranks"),
    ModelPoint: (lambda: _space().zero(), lambda: _space().point([[_space().slot(0, free=[[1]]), _space().slot(0)]]),
                 "slots"),
    GeneratorSet: (lambda: load_scenario(Z_BASIC).gamma,
                   lambda: load_scenario(Z_BASIC.with_name("gaussian.json")).gamma, "point"),
    WeightedCertificate: (
        _weighted,
        lambda: WeightedCertificate(morphism=_phi(), scale=2, columns=((0,),), slack_sq=F(7)),
        "scale",
    ),
    SpecialCertificate: (
        _special,
        lambda: SpecialCertificate(morphism=_special().morphism, weighted=_weighted(), slack_sq=F(4)),
        "slack_sq",
    ),
    InclusionWitness: (lambda: load_scenario(Z_BASIC).witnesses()[0][1],
                       lambda: load_scenario(Z_BASIC).witnesses()[1][1], "xi_bound_sq"),
    ApproxResult: (lambda: ApproxResult(3, (1,), F(0), 5), lambda: ApproxResult(3, (1,), F(0), 9), "error"),
    BlockMorphism: (_phi, lambda: BlockMorphism.from_coords(_pz(), (2,), (1,), [[[[2], [6]]]]), "blocks"),
    LedgerEntry: (lambda: LedgerEntry("c", F(2), "two", (("a", "1"),)), lambda: LedgerEntry("c", F(2), "two"),
                  "value"),
    VarietyCard: (lambda: load_scenario(Z_BASIC).card,
                  lambda: VarietyCard("A", F(1), 0, 1, F(1), 1), "deg_v"),
    ConstantLedger: (lambda: derive_ledger(_pz()), lambda: derive_ledger(ProductRingSpec((gaussian_ring(),))), None),
    Scenario: (lambda: load_scenario(Z_BASIC), lambda: load_scenario(Z_BASIC.with_name("gaussian.json")), None),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_equality_hash_and_assignment(cls):
    build, build_other, field = RECORDS[cls]
    a, b, other = build(), build(), build_other()
    assert type(a) is type(other) is cls and a is not b
    assert a == b and not a != b
    assert a != other and not a == other
    assert a != (a,)
    if field is None:
        with pytest.raises(TypeError):
            hash(a)
        return
    assert hash(a) == hash(b)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(a, field, getattr(other, field))
    assert a == b


def _package_modules():
    """Every module of the package but `__main__`, which runs the command line."""
    return [importlib.import_module(f"endoapprox.{m.name}")
            for m in pkgutil.iter_modules(endoapprox.__path__) if m.name != "__main__"]


def _defined(cls):
    """The classes of the package that derive from cls, cls excluded."""
    return {obj for module in _package_modules() for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, cls) and obj is not cls
            and obj.__module__ == module.__name__}


def test_every_record_is_a_case():
    records = _defined(Record)
    assert len(records) >= 15
    missing = sorted(cls.__name__ for cls in records - set(RECORDS))
    assert not missing, f"records without an equality, hash and assignment case: {missing}"


BUILTIN_EXCEPTIONS = {
    obj for obj in vars(builtins).values() if isinstance(obj, type) and issubclass(obj, BaseException)
} - {BaseException, Exception}


def test_every_exception_descends_from_the_root():
    errors = _defined(BaseException) - {EndoapproxError}
    assert len(errors) >= 13
    for cls in errors:
        assert issubclass(cls, EndoapproxError), cls.__name__
        assert BUILTIN_EXCEPTIONS & set(cls.__mro__), cls.__name__


def test_named_tuple_records_keep_their_repr():
    bounds = MuBounds(bound_phi=F(1), bound_big_phi=F(2), eps1_lower=F(3), eps2_lower=F(4))
    assert repr(bounds) == (
        "MuBounds(bound_phi=Fraction(1, 1), bound_big_phi=Fraction(2, 1), "
        "eps1_lower=Fraction(3, 1), eps2_lower=Fraction(4, 1))"
    )
    with pytest.raises(AttributeError):
        bounds.bound_phi = F(0)


def _bad_witness():
    w = load_scenario(Z_BASIC).witnesses()[0][1]
    return InclusionWitness(morphism=w.morphism, x=w.x, xi=w.xi, xi_bound_sq=w.xi.height() - F(1, 10**9))


def _torsion_generators():
    space = ModelSpace(AmbientSpec(_pz(), (1,)), (1,))
    return GeneratorSet(space, space.point([[space.slot(0, torsion=[F(1, 2)], free=[[1]])]]))


BAD_CONSTRUCTIONS = [
    (lambda: RingSpec("Z", 0, 1, (), (), (), (), ()), RingError, "rank and dimension must be positive"),
    (lambda: ProductRingSpec(()), RingError, "product of zero rings"),
    (lambda: ProductRingSpec((integer_ring(), integer_ring())), RingError, "distinct tags"),
    (lambda: AmbientSpec(_pz(), (1, 1)), MorphismError, "one count per ring factor required"),
    (lambda: AmbientSpec(_pz(), (-1,)), MorphismError, "coordinate counts must be non-negative"),
    (lambda: ModelSpace(AmbientSpec(_pz(), (1,)), (-1,)), ModelError, "free ranks must be non-negative"),
    (_torsion_generators, ModelError, "generators must be torsion-free"),
    (lambda: WeightedCertificate(_phi(), 2, ((1,),), F(25, 4)), MorphismError, "selected columns do not form a\\*I"),
    (lambda: WeightedCertificate(_phi(), 2, ((0,),), F(1)), MorphismError, "norm exceeds the certified weighted"),
    (lambda: SpecialCertificate(_special().morphism, _weighted(), F(1)), MorphismError,
     "norm exceeds the certified special slack"),
    (_bad_witness, WitnessError, "perturbation height exceeds the recorded bound"),
    (lambda: ApproxResult(5, (1,), F(0), 5), DirichletError, "denominator outside the guaranteed range"),
    (lambda: LedgerEntry("c", F(0), "zero"), ValueError, "ledger constant c must be positive"),
    (lambda: VarietyCard("A", F(1), 1, 1, F(1), 3), ThresholdError, "dimension \\+ codimension"),
]


@pytest.mark.parametrize("build, error, message", BAD_CONSTRUCTIONS,
                         ids=[error.__name__ + str(i) for i, (_, error, _) in enumerate(BAD_CONSTRUCTIONS)])
def test_self_checking_records_refuse_bad_data(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_reduction_copies_are_checked(monkeypatch):
    scenario = load_scenario(Z_BASIC)
    w = scenario.witnesses()[0][1]
    pw = gamma_embed(w, scenario.gamma, scenario.k0_sq, scenario.ambient)
    # weighted_witness's copy takes the certificate's morphism: the identity
    # does not kill the witness's argument
    identity = is_weighted(BlockMorphism.identity(w.morphism.product, w.morphism.source))
    monkeypatch.setattr(reduction, "weighted_normal_form", lambda phi, ambient: (identity, True))
    with pytest.raises(WitnessError, match="witness equation does not hold"):
        weighted_witness(w, scenario.ambient)
    # point_project's copy takes the special certificate's morphism (I | 0)
    left = pw.x.space.counts
    right = tuple(s - l for s, l in zip(pw.morphism.source, left))
    eye = BlockMorphism.identity(pw.morphism.product, left)
    special = SpecialCertificate(
        morphism=eye.hstack(BlockMorphism.zero(pw.morphism.product, right, left)),
        weighted=is_weighted(eye),
        slack_sq=F(1),
    )
    monkeypatch.setattr(reduction, "rank_check_special", lambda w, ambient: (left, special))
    with pytest.raises(WitnessError, match="witness equation does not hold"):
        point_project(pw, scenario.k0_sq, scenario.ambient, derive_ledger(scenario.product))
