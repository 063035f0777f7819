"""Value semantics of the immutable model and expression classes: repr
text, equality only within one class, hashing by the compared fields,
immutability, constructor keywords and defaults, the constructors' error
texts, and no per-instance `__dict__`."""

import copy
import importlib
import pickle
import pkgutil

import pytest

import gaugekit
from gaugekit.decompose import Decomposition
from gaugekit.exact import CyclicElem
from gaugekit.groups import TRIVIAL, FGAbelianGroup
from gaugekit.jobfile import Job
from gaugekit.manifolds import GeneralComplex, N2Manifold, SigmaFCase, SphereBundle, WallManifold
from gaugekit.modmatrix import AttachingMatrix, F2Matrix, RowOp, reduce_with_report
from gaugekit.spaces import (
    AttachedComplex,
    Gauge,
    LieGroup,
    Loop,
    MappingSpace,
    Product,
    Sphere,
    SuspCP2,
    Suspension,
    TwoCell,
    Wedge,
)
from gaugekit.tables import GroupQueryResult, TableEntry
from gaugekit.value import Value

S3, S4 = Sphere(3), Sphere(4)
Z = FGAbelianGroup(1)
ALWAYS = compile("True", "<test>", "eval")
NEVER = compile("False", "<test>", "eval")
BUNDLE = SphereBundle(2, 3)
B = AttachingMatrix((24,), ((3,), (5,)))

# A factory (called twice, so equal instances are distinct objects), the
# repr text, and the tuple of compared fields.
SAMPLES = {
    "Sphere": (lambda: Sphere(3), "Sphere(n=3)", (3,)),
    "SuspCP2": (lambda: SuspCP2(2), "SuspCP2(k=2)", (2,)),
    "TwoCell": (
        lambda: TwoCell(4, CyclicElem(1, 12)),
        "TwoCell(bottom=4, attach=CyclicElem(value=1, modulus=12))",
        (4, CyclicElem(1, 12)),
    ),
    "AttachedComplex": (
        lambda: AttachedComplex(S3, 6, "f"),
        "AttachedComplex(skeleton=Sphere(n=3), top=6, label='f')",
        (S3, 6, "f"),
    ),
    "LieGroup": (lambda: LieGroup("SU(2)"), "LieGroup(name='SU(2)')", ("SU(2)",)),
    "MappingSpace": (
        lambda: MappingSpace(S3, S4),
        "MappingSpace(domain=Sphere(n=3), codomain=Sphere(n=4))",
        (S3, S4),
    ),
    "Gauge": (
        lambda: Gauge(S4, "alpha", "E6"),
        "Gauge(base=Sphere(n=4), label='alpha', group='E6')",
        (S4, "alpha", "E6"),
    ),
    "Wedge": (
        lambda: Wedge((S3, S4)),
        "Wedge(parts=(Sphere(n=3), Sphere(n=4)))",
        ((S3, S4),),
    ),
    "Product": (
        lambda: Product((S3, S4)),
        "Product(parts=(Sphere(n=3), Sphere(n=4)))",
        ((S3, S4),),
    ),
    "Loop": (lambda: Loop(2, S3), "Loop(power=2, space=Sphere(n=3))", (2, S3)),
    "Suspension": (
        lambda: Suspension(1, LieGroup("G2")),
        "Suspension(power=1, space=LieGroup(name='G2'))",
        (1, LieGroup("G2")),
    ),
    "CyclicElem": (lambda: CyclicElem(7, 5), "CyclicElem(value=2, modulus=5)", (2, 5)),
    "FGAbelianGroup": (
        lambda: FGAbelianGroup(1, (2, 4)),
        "FGAbelianGroup(free_rank=1, torsion=(2, 4))",
        (1, (2, 4)),
    ),
    "RowOp": (lambda: RowOp("add", 1, 2, 3), "RowOp(kind='add', a=1, b=2, k=3)", ("add", 1, 2, 3)),
    "AttachingMatrix": (
        lambda: AttachingMatrix((2, 4), ((3, 5),)),
        "AttachingMatrix(moduli=(2, 4), entries=((1, 1),))",
        ((2, 4), ((1, 1),)),
    ),
    "F2Matrix": (lambda: F2Matrix(((0, 1), (1, 0))), "F2Matrix(rows=((0, 1), (1, 0)))", (((0, 1), (1, 0)),)),
    "WallManifold": (
        lambda: WallManifold(4, (CyclicElem(3, 24),), True),
        "WallManifold(n=4, chi=(CyclicElem(value=3, modulus=24),), almost_parallelizable=True)",
        (4, (CyclicElem(3, 24),), True),
    ),
    "SphereBundle": (
        lambda: SphereBundle(2, 3, True, False, "c"),
        "SphereBundle(q=2, n=3, has_section=True, j_xi_trivial=False, clutching_note='c')",
        (2, 3, True, False, "c"),
    ),
    "N2Manifold": (
        lambda: N2Manifold(6, F2Matrix(((1,),))),
        "N2Manifold(n=6, C=F2Matrix(rows=((1,),)), sigma_f_case=<SigmaFCase.GENERAL: 'general'>)",
        (6, F2Matrix(((1,),)), SigmaFCase.GENERAL),
    ),
    "GeneralComplex": (
        lambda: GeneralComplex(4, B),
        "GeneralComplex(n=4, B=AttachingMatrix(moduli=(24,), entries=((3,), (5,))))",
        (4, B),
    ),
    "TableEntry": (
        lambda: TableEntry("S^n", ("n",), "n", (Z,), None, "c", ALWAYS),
        "TableEntry(family='S^n', params=('n',), degree_spec='n', "
        "groups=(FGAbelianGroup(free_rank=1, torsion=()),), validity=None, citation='c')",
        ("S^n", ("n",), "n", (Z,), None, "c"),
    ),
    "GroupQueryResult": (
        lambda: GroupQueryResult(Z, "c"),
        "GroupQueryResult(group=FGAbelianGroup(free_rank=1, torsion=()), source='c')",
        (Z, "c"),
    ),
    "Job": (
        lambda: Job("sphere_bundle", BUNDLE, "SU(2)", frozenset({2}), "text"),
        "Job(kind='sphere_bundle', spec=SphereBundle(q=2, n=3, has_section=False, "
        "j_xi_trivial=False, clutching_note=''), group='SU(2)', localize_away=frozenset({2}), "
        "fmt='text')",
        ("sphere_bundle", BUNDLE, "SU(2)", frozenset({2}), "text"),
    ),
    "Decomposition": (
        lambda: Decomposition(S3, Gauge(S4), "t"),
        "Decomposition(suspension=Sphere(n=3), gauge=Gauge(base=Sphere(n=4), label='k', "
        "group=None), theorem_used='t', localized_away=frozenset(), base_space=None)",
        (S3, Gauge(S4), "t", frozenset(), None),
    ),
}
NAMES = sorted(SAMPLES)


def _value_classes():
    """The Value subclasses with fields that the package defines, found after
    importing every one of its modules."""
    for module in pkgutil.iter_modules(gaugekit.__path__):
        importlib.import_module(f"gaugekit.{module.name}")
    found, todo = set(), [Value]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            todo.append(sub)
            if sub._fields and sub.__module__.startswith("gaugekit."):
                found.add(sub)
    return found


def test_samples_cover_every_value_class():
    assert {type(make()) for make, _, _ in SAMPLES.values()} == _value_classes()
    assert {type(make()).__name__ for make, _, _ in SAMPLES.values()} == set(SAMPLES)


@pytest.mark.parametrize("name", NAMES)
def test_repr_text(name):
    make, text, _ = SAMPLES[name]
    assert repr(make()) == text


@pytest.mark.parametrize("name", NAMES)
def test_equal_instances_hash_as_their_compared_fields(name):
    make, _, compared = SAMPLES[name]
    x, y = make(), make()
    assert x is not y
    assert x == y and not x != y
    assert hash(x) == hash(y) == hash(compared)


def test_equality_holds_only_within_one_class():
    assert Loop(1, S3) != Suspension(1, S3)
    assert Wedge((S3, S4)) != Product((S3, S4))
    assert CyclicElem(2, 5) != (2, 5)
    instances = [SAMPLES[name][0]() for name in NAMES]
    for i, x in enumerate(instances):
        for j, y in enumerate(instances):
            assert (x == y) is (i == j)


def test_table_entry_ignores_its_condition():
    always = SAMPLES["TableEntry"][0]()
    never = TableEntry("S^n", ("n",), "n", (Z,), None, "c", NEVER)
    assert always == never and hash(always) == hash(never)
    assert "condition" not in repr(always)
    assert always.matches({"n": 3}, 3) and not never.matches({"n": 3}, 3)


def test_decomposition_ignores_its_reduction_but_copies_keep_it():
    plain = SAMPLES["Decomposition"][0]()
    reduction = reduce_with_report(AttachingMatrix.from_rows([[2], [3]], 24))
    kept = Decomposition(S3, Gauge(S4), "t", reduction=reduction)
    assert plain.reduction is None and kept.reduction is reduction
    assert kept == plain and hash(kept) == hash(plain) and repr(kept) == repr(plain)
    for again in (copy.copy(kept), copy.deepcopy(kept), pickle.loads(pickle.dumps(kept))):
        assert again.reduction == reduction
        assert again.reduction[0].oplog == reduction[0].oplog


def test_attaching_matrices_compare_by_moduli_and_entries():
    R, _ = reduce_with_report(AttachingMatrix.from_rows([[2], [3]], 24))
    plain = AttachingMatrix(R.moduli, R.entries)
    assert R.oplog and R.initial == ((2,), (3,)) != R.entries
    assert plain.oplog == () and plain.initial == plain.entries
    assert R == plain and hash(R) == hash(plain) and repr(R) == repr(plain)
    assert GeneralComplex(4, R) == GeneralComplex(4, plain)
    assert hash(GeneralComplex(4, R)) == hash(GeneralComplex(4, plain))
    assert R != AttachingMatrix((12,), R.entries)
    assert R != AttachingMatrix.from_rows([[0], [1]], 24)
    # the log and the initial matrix are not compared, but copies keep them
    for again in (copy.copy(R), copy.deepcopy(R), pickle.loads(pickle.dumps(R))):
        assert (again.oplog, again.initial) == (R.oplog, R.initial)


def test_list_built_values_equal_their_tuple_built_twins():
    pairs = [
        (AttachingMatrix([8, 16], [[1, 2], [3, 4]]), AttachingMatrix((8, 16), ((1, 2), (3, 4)))),
        (AttachingMatrix.from_rows([[9]], [8]), AttachingMatrix((8,), ((1,),))),
        (F2Matrix([[1, 0], [0, 1]]), F2Matrix.identity(2)),
        (F2Matrix([(0, 1), [1, 0]]), F2Matrix(((0, 1), (1, 0)))),
        (FGAbelianGroup(0, [2]), FGAbelianGroup(0, (2,))),
        (WallManifold(5, [CyclicElem(0, 1)]), WallManifold(5, (CyclicElem(0, 1),))),
        (Wedge([S3, S4]), Wedge((S3, S4))),
        (Product([S3, S4]), Product((S3, S4))),
        (Decomposition(S3, S4, "t", {2, 3}), Decomposition(S3, S4, "t", frozenset({2, 3}))),
        (Job("sphere_bundle", BUNDLE, "E6", {2}, "text"), Job("sphere_bundle", BUNDLE, "E6", frozenset({2}), "text")),
    ]
    for built, twin in pairs:
        assert built == twin and hash(built) == hash(twin) and repr(built) == repr(twin)
        assert {built, twin} == {twin}
    assert type(pairs[0][0].moduli) is tuple
    assert all(type(row) is tuple for row in pairs[2][0].rows)
    assert type(pairs[6][0].parts) is tuple and type(pairs[9][0].localize_away) is frozenset


def test_diagonal_pins():
    assert AttachingMatrix.from_rows([[1, 2], [3, 4], [5, 6]], 8).diagonal == (1, 4)  # m > r
    assert AttachingMatrix.from_rows([[1, 2, 3], [4, 5, 6]], 8).diagonal == (1, 5)  # m < r
    # a column with no nonzero entry keeps a 0 pivot
    R, notes = reduce_with_report(AttachingMatrix.from_rows([[0, 6], [0, 4], [0, 2]], (4, 8)))
    assert R.entries == ((0, 6), (0, 2), (0, 0))
    assert R.diagonal == (0, 2) and notes == ()


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_set_or_deleted(name):
    make, text, _ = SAMPLES[name]
    x = make()
    field = text[len(name) + 1 :].split("=", 1)[0]
    before = getattr(x, field)
    with pytest.raises(AttributeError):
        setattr(x, field, before)
    with pytest.raises(AttributeError):
        delattr(x, field)
    with pytest.raises(AttributeError):
        x.not_a_field = 1
    assert getattr(x, field) is before and repr(x) == text


@pytest.mark.parametrize("name", NAMES)
def test_instances_have_no_dict(name):
    assert not hasattr(SAMPLES[name][0](), "__dict__")


@pytest.mark.parametrize("name", NAMES)
def test_copies_and_pickles_are_equal(name):
    x = SAMPLES[name][0]()
    assert copy.copy(x) == x and copy.deepcopy(x) == x
    if name != "TableEntry":  # its compiled condition cannot be pickled
        assert pickle.loads(pickle.dumps(x)) == x


def test_keywords_and_defaults():
    assert Gauge(base=S3) == Gauge(S3, "k", None)
    assert Gauge(base=S3).label == "k" and Gauge(base=S3).group is None
    assert AttachedComplex(skeleton=S3, top=6).label is None
    assert FGAbelianGroup() == TRIVIAL == FGAbelianGroup(free_rank=0, torsion=())
    assert RowOp("negate", 2) == RowOp(kind="negate", a=2, b=0, k=1)
    m = AttachingMatrix(moduli=(4,), entries=((5,),))
    assert m.oplog == () and m.initial == m.entries == ((1,),)
    assert WallManifold(n=4, chi=(CyclicElem(0, 24),)).almost_parallelizable is False
    assert SphereBundle(q=1, n=2) == SphereBundle(1, 2, False, False, "")
    assert N2Manifold(n=8, C=F2Matrix.identity(2)).sigma_f_case is SigmaFCase.GENERAL
    d = Decomposition(suspension=S3, gauge=S4, theorem_used="t")
    assert d.localized_away == frozenset() and d.base_space is None
    assert CyclicElem(-1, 5).value == 4
    assert CyclicElem(value=-1, modulus=5) == CyclicElem(4, 5)


I1 = F2Matrix(((1,),))
MESSAGES = {
    "Sphere": (lambda: Sphere(-1), "sphere dimension must be >= 0"),
    "SuspCP2": (lambda: SuspCP2(-1), "suspension power must be >= 0"),
    "Loop": (lambda: Loop(0, S3), "loop power must be >= 1"),
    "Suspension": (lambda: Suspension(0, S3), "suspension power must be >= 1"),
    "CyclicElem": (lambda: CyclicElem(1, 0), "modulus must be >= 1, got 0"),
    "FGAbelianGroup rank": (lambda: FGAbelianGroup(-1), "free rank must be >= 0"),
    "FGAbelianGroup torsion": (lambda: FGAbelianGroup(0, (1,)), "torsion coefficients must be >= 2"),
    "FGAbelianGroup chain": (
        lambda: FGAbelianGroup(0, (4, 6)),
        "torsion coefficients must form a divisibility chain, got (4, 6)",
    ),
    "RowOp kind": (lambda: RowOp("mul", 1), "unknown row operation 'mul'"),
    "RowOp a": (lambda: RowOp("negate", 0), "row indices are 1-based"),
    "RowOp b": (lambda: RowOp("add", 1, 0), "row indices are 1-based"),
    "RowOp distinct": (lambda: RowOp("swap", 1, 1), "swap requires two distinct rows"),
    "RowOp negate b": (lambda: RowOp("negate", 1, 2), "negate takes a single row index"),
    "RowOp k": (lambda: RowOp("add", 1, 2, 0), "an add multiplicity must be >= 1"),
    "RowOp swap k": (lambda: RowOp("swap", 1, 2, 2), "swap takes no multiplicity"),
    "AttachingMatrix rows": (lambda: AttachingMatrix((2,), ()), "matrix needs at least one row"),
    "AttachingMatrix moduli": (lambda: AttachingMatrix((0,), ((1,),)), "column moduli must be positive"),
    "AttachingMatrix chain": (
        lambda: AttachingMatrix((2, 3), ((1, 1),)),
        "moduli must form a divisibility chain, got [2, 3]",
    ),
    "AttachingMatrix row length": (
        lambda: AttachingMatrix((2,), ((1, 1),)),
        "row length must match the number of moduli",
    ),
    "F2Matrix square": (lambda: F2Matrix(((1, 0),)), "matrix must be square"),
    "F2Matrix bits": (lambda: F2Matrix(((2,),)), "entries must be bits, got 2"),
    "WallManifold n": (lambda: WallManifold(1, ()), "wall manifolds need n >= 2, got 1"),
    "WallManifold rank": (
        lambda: WallManifold(4, ()),
        "rank must be >= 1 (one residue per cohomology generator)",
    ),
    "WallManifold modulus": (
        lambda: WallManifold(4, (CyclicElem(0, 3),)),
        "chi residues for n=4 must have modulus 24, got 3",
    ),
    "SphereBundle": (lambda: SphereBundle(0, 3), "need fibre and base dimensions >= 1"),
    "N2Manifold n": (lambda: N2Manifold(5, I1), "only n = 6 and n = 8 are supported, got n=5"),
    "N2Manifold rank": (lambda: N2Manifold(6, F2Matrix(())), "rank must be >= 1"),
    "N2Manifold case": (
        lambda: N2Manifold(6, I1, SigmaFCase.IN_TOP_SPHERE),
        "the in_top_sphere case exists only for n = 8 (the 12-dimensional theorem has four cases)",
    ),
    "GeneralComplex": (lambda: GeneralComplex(1, B), "need n >= 2, got n=1"),
}


@pytest.mark.parametrize("case", sorted(MESSAGES))
def test_constructor_error_texts(case):
    build, text = MESSAGES[case]
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == text
