"""The record classes: constructors, validation, equality, hashing, repr and
immutability of the parameter objects, contexts and reports."""

import pytest

from qbraid.errors import ConstraintViolated, CondQViolated, UnsupportedDimension, ZeroQ
from qbraid.irred import (
    IrreducibilityReport,
    MinorOutcome,
    SuspectedCatalogEntry,
    analyze,
    intertwiner_space,
    suspected_catalog,
)
from qbraid.qcomb import (
    IdentityReport,
    QContext,
    QTriangleRow,
    concrete_q,
    inverse_context,
    q_binomial,
    q_power,
    symbolic_q,
    triangle_row,
)
from qbraid.rep import (
    BraidReport,
    RepSpec,
    Representation,
    build_representation,
    factored_spec,
    raw_spec,
)
from qbraid.scalar import QQ, FieldContext, Scalar, function_field, integer, q_symbol, zeta
from qbraid.structure import LemmaReport, TWEquivalenceReport, TWParams


def ones(n, ctx=QQ):
    return tuple(Scalar.one(ctx) for _ in range(n + 1))


def frozen_values():
    """One value of every frozen record class, each with a field to assign."""
    rep = build_representation(factored_spec(2, concrete_q(integer(1)), ones(2)))
    return [
        (FieldContext(3, True), "order"),
        (symbolic_q(), "q"),
        (triangle_row(3, symbolic_q()), "entries"),
        (rep.spec, "lam"),
        (rep, "sigma1"),
        (suspected_catalog(3)[0], "s"),
        (TWParams(3, ones(2)), "d"),
    ]


def test_equal_contexts_and_specs_compare_and_hash_equal():
    pairs = [
        (FieldContext(5, True), function_field(5)),
        (FieldContext(), QQ),
        (QContext(q_symbol(3)), symbolic_q(3)),
        (concrete_q(zeta(5)), QContext(zeta(5))),
        (raw_spec(2, symbolic_q(), ones(2, function_field())),
         RepSpec(2, symbolic_q(), ones(2, function_field()), "raw")),
        (factored_spec(1, concrete_q(integer(2)), ones(1)),
         RepSpec(1, concrete_q(integer(2)), ones(1))),
    ]
    for a, b in pairs:
        assert a is not b
        assert a == b and not a != b, (a, b)
        assert hash(a) == hash(b), (a, b)
        assert {a: 1}[b] == 1
    assert FieldContext(5, True) != FieldContext(5, False)
    assert FieldContext(5) != FieldContext(7)
    assert symbolic_q() != symbolic_q(3)
    assert concrete_q(integer(2)) != concrete_q(integer(3))
    assert factored_spec(1, concrete_q(integer(2)), ones(1)) != \
        raw_spec(1, concrete_q(integer(2)), ones(1))
    # a context is never equal to a value of another class
    assert FieldContext() != (1, False) and symbolic_q() != q_symbol()


def test_field_context_order_2_is_plain_q():
    assert FieldContext(2) == QQ
    assert FieldContext(2).order == 1
    assert hash(FieldContext(2)) == hash(QQ)
    assert FieldContext(2, True) == function_field()
    assert FieldContext(2).describe() == "QQ"


def test_a_context_with_filled_memos_equals_hashes_and_reprs_as_a_fresh_one():
    used, fresh = symbolic_q(), symbolic_q()
    for k in range(6):
        q_binomial(5, k, used)
    q_power(-7, used)
    assert used._rows and used._powers and not fresh._rows and not fresh._powers
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh) == f"QContext(q={q_symbol()!r})"
    assert repr(concrete_q(integer(2))) == f"QContext(q={integer(2)!r})"


def test_the_inverse_context_is_one_per_q():
    ctx = concrete_q(integer(2))
    inverse = inverse_context(ctx)
    assert inverse == QContext(integer(2).inverse())
    assert inverse_context(concrete_q(integer(2))) is inverse
    assert inverse_context(inverse) == ctx


def test_frozen_records_refuse_assignment():
    for value, name in frozen_values():
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert getattr(value, name) is before
        assert hash(value) == hash(value)


def test_validation_errors_are_unchanged():
    with pytest.raises(ValueError, match="order must be >= 1"):
        FieldContext(0)
    with pytest.raises(ZeroQ, match="q must be nonzero"):
        QContext(Scalar.zero(QQ))
    ctx = concrete_q(integer(1))
    with pytest.raises(ValueError, match="form must be 'raw' or 'factored'"):
        RepSpec(1, ctx, ones(1), "other")
    with pytest.raises(CondQViolated, match="lambda needs 3 entries"):
        RepSpec(2, ctx, ones(1))
    with pytest.raises(CondQViolated, match="lambda_1 must be nonzero") as info:
        RepSpec(2, ctx, (integer(1), integer(0), integer(1)), "raw")
    assert info.value.index == 1
    with pytest.raises(UnsupportedDimension, match="sizes 2..5 only"):
        TWParams(6, ones(5))
    with pytest.raises(ConstraintViolated, match="size 3 needs 3 eigenvalues"):
        TWParams(3, ones(3))
    with pytest.raises(ConstraintViolated, match="eigenvalues must be nonzero"):
        TWParams(2, (integer(1), integer(0)))
    with pytest.raises(ConstraintViolated, match="size 4 needs the square-root parameter d"):
        TWParams(4, ones(3))
    with pytest.raises(ConstraintViolated, match="parameter d must be nonzero"):
        TWParams(4, ones(3), d=integer(0))


def test_constructors_keep_their_signatures_and_defaults():
    ctx = concrete_q(integer(1))
    assert RepSpec(1, ctx, ones(1)).form == "factored"
    assert RepSpec(n=1, ctx=ctx, lam=ones(1), form="raw").form == "raw"
    assert TWParams(3, ones(2)).d is None
    assert TWParams(4, ones(3), d=integer(2)).d == integer(2)
    assert FieldContext(with_q=True) == function_field()
    assert QTriangleRow(n=1, entries=(1, 1)) == QTriangleRow(1, (1, 1))
    entry = SuspectedCatalogEntry(n=2, s=2, lam=ones(2))
    assert (entry.n, entry.s, entry.lam) == (2, 2, ones(2))


def test_reports_compare_by_fields_and_are_mutable_and_unhashable():
    reports = [   # (class, fields, a field to change)
        (IdentityReport, ("bin1q", 3, True, 16, None), "checked"),
        (BraidReport, (3, False, [{"check": "c", "passed": False}], {"check": "c"}), "n"),
        (MinorOutcome, (0, (0, 1), "2", 1, True), "witness"),
        (IrreducibilityReport, (2, "q", ["1", "1", "1"], [], 1, 9, "operator-irreducible"),
         "verdict"),
        (LemmaReport, ("pascal-exponential", 2, True, {"classical": True}), "passed"),
        (TWEquivalenceReport, (2, True, "q", [["1"]], [], None), "first_failure"),
    ]
    for cls, fields, name in reports:
        a, b = cls(*fields), cls(*fields)
        assert a == b and not a != b, cls
        assert a != fields, cls
        with pytest.raises(TypeError):
            hash(a)
        setattr(a, name, "changed")
        assert getattr(a, name) == "changed"
        assert a != b, cls
        assert repr(b).startswith(cls.__name__ + "(")
    assert repr(MinorOutcome(0, None, None, 3, True)) == (
        "MinorOutcome(r=0, witness=None, minor_value=None, subsets_checked=3, "
        "reduction_consistent=True)")
    assert MinorOutcome(0, None, None, 3, True) != MinorOutcome(0, None, None, 4, True)


def test_representations_compare_by_their_fields():
    spec = factored_spec(2, concrete_q(integer(2)), ones(2))
    rep, again = build_representation(spec), build_representation(spec)
    assert rep == again and hash(rep) == hash(again)
    other = Representation(rep.spec, rep.sigma2, rep.sigma1, rep.lam_raw)
    assert other != rep
    assert (rep.n, rep.ctx) == (2, spec.ctx)


def test_a_representation_with_filled_memos_equals_hashes_and_reprs_as_a_fresh_one():
    """The memos that `irred` fills on a representation (sigma_1 in
    integer-row form, the half twist, the residues per (p, q0, k)) are left
    out of its equality, hash and repr, and are not fields."""
    z = zeta(3)
    lam = tuple(integer(2, z.ctx) * z ** k for k in range(5))
    spec = raw_spec(4, concrete_q(Scalar.one(z.ctx)), lam)
    used, fresh = build_representation(spec), build_representation(spec)
    assert analyze(used).verdict == "operator-reducible"
    assert intertwiner_space(used, used)["status"] == "equivalent"
    memos = ("_sigma1_rows", "_half_twist", "_residues")
    assert all(getattr(used, name) is not None for name in memos)
    assert all(getattr(fresh, name) is None for name in memos)
    assert not set(memos) & set(Representation._fields)
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    with pytest.raises(AttributeError):
        used._residues = {}
