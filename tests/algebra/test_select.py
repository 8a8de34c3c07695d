"""Tests for the extended selection beyond the paper-table cases."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PredicateError
from repro.algebra import (
    IsPredicate,
    SN_CERTAIN,
    SN_POSITIVE,
    ThetaPredicate,
    attr,
    lit,
    select,
    union,
)
from repro.algebra.thresholds import sn_at_least, sp_at_least
from repro.datasets.generators import SyntheticConfig, synthetic_relation
from repro.datasets.restaurants import table_ra
from repro.ds.frame import OMEGA
from repro.ds.mass import MassFunction
from repro.model.attribute import Attribute
from repro.model.domain import NumericDomain, TextDomain
from repro.model.etuple import ExtendedTuple
from repro.model.membership import CERTAIN, TupleMembership
from repro.model.relation import ExtendedRelation
from repro.model.schema import RelationSchema
from tests.conftest import supported_memberships


@pytest.fixture
def ra():
    return table_ra()


class TestThresholds:
    def test_sn_certain_keeps_only_definite_answers(self, ra):
        result = select(ra, IsPredicate("rating", {"ex"}), SN_CERTAIN)
        # Only country and ashiana have rating [ex^1] with certain
        # membership; mehl has [ex^0.8] and membership (0.5,0.5).
        assert sorted(t.key()[0] for t in result) == ["ashiana", "country"]

    def test_sn_at_least_half(self, ra):
        result = select(ra, IsPredicate("rating", {"ex"}), sn_at_least("1/2"))
        assert sorted(t.key()[0] for t in result) == ["ashiana", "country"]

    def test_sp_threshold(self, ra):
        result = select(ra, IsPredicate("speciality", {"hu"}), sp_at_least("1/2"))
        # garden: Pls({hu}) = 1/4 + 1/4 = 1/2 -> sp = 1/2 passes;
        # sn = Bel = 1/4 > 0.
        assert [t.key()[0] for t in result] == ["garden"]

    def test_sn_zero_tuples_always_excluded(self, ra):
        """Even a permissive threshold cannot admit sn = 0 tuples."""
        from repro.algebra.thresholds import ALWAYS

        result = select(ra, IsPredicate("speciality", {"si"}), ALWAYS)
        assert sorted(t.key()[0] for t in result) == ["garden", "wok"]


class TestThetaSelection:
    def test_numeric_comparison_on_certain_attribute(self, ra):
        result = select(ra, ThetaPredicate("bldg_no", ">=", lit(600)))
        assert sorted(t.key()[0] for t in result) == ["garden", "mehl", "wok"]

    def test_comparison_is_crisp_for_definite_values(self, ra):
        result = select(ra, ThetaPredicate("bldg_no", "<", lit(600)))
        for t in result:
            assert t.membership == table_ra().get(t.key()).membership

    def test_attribute_to_attribute(self, ra):
        result = select(ra, ThetaPredicate("bldg_no", "=", attr("bldg_no")))
        assert len(result) == len(ra)


class TestResultShape:
    def test_original_relation_untouched(self, ra):
        select(ra, IsPredicate("speciality", {"si"}))
        assert len(ra) == 6
        assert ra.get("garden").membership.is_certain

    def test_result_name_defaults_to_input(self, ra):
        assert select(ra, IsPredicate("speciality", {"si"})).name == "RA"

    def test_result_name_override(self, ra):
        result = select(ra, IsPredicate("speciality", {"si"}), name="sichuan")
        assert result.name == "sichuan"
        assert len(result) == 2

    def test_unknown_attribute_rejected(self, ra):
        with pytest.raises(PredicateError, match="unknown attribute"):
            select(ra, IsPredicate("cuisine", {"si"}))

    def test_empty_result_is_valid_relation(self, ra):
        result = select(ra, IsPredicate("speciality", {"ta"}), SN_CERTAIN)
        assert len(result) == 0
        assert result.schema.names == ra.schema.names

    def test_selection_composes(self, ra):
        """Cascaded selections multiply supports."""
        first = select(ra, IsPredicate("speciality", {"mu"}))
        second = select(first, IsPredicate("rating", {"ex"}))
        mehl = second.get("mehl")
        assert mehl.membership.as_tuple() == (Fraction(8, 25), Fraction(8, 25))

    def test_selection_on_key_attribute(self, ra):
        result = select(ra, ThetaPredicate("rname", "=", lit("wok")))
        assert [t.key()[0] for t in result] == ["wok"]


# -- the scan against the reference m (x) F_SS filter ---------------------------


def _reference_select(relation, predicate, threshold):
    """The paper's selection as written: revise every tuple's membership
    with the product rule ``F_TM`` (checked construction), then keep the
    tuples with ``sn > 0`` that pass *threshold*."""
    kept = []
    for etuple in relation:
        support = predicate.support(etuple)
        revised = TupleMembership(
            etuple.membership.sn * support.sn, etuple.membership.sp * support.sp
        )
        if revised.sn > 0 and threshold(revised):
            kept.append((etuple.key(), revised))
    return kept


def _same_number(a, b) -> bool:
    if type(a) is not type(b):
        return False
    return a.hex() == b.hex() if isinstance(a, float) else a == b


_FLOAT_CERTAIN = TupleMembership(1.0, 1.0)


@st.composite
def _scan_memberships(draw):
    """Supported memberships: the exact and the float certain pair, and
    exact, float and mixed Fraction/float pairs."""
    kind = draw(st.sampled_from(["certain", "float-certain", "exact", "float", "mixed"]))
    if kind == "certain":
        return CERTAIN
    if kind == "float-certain":
        return _FLOAT_CERTAIN
    exact = draw(supported_memberships())
    if kind == "exact":
        return exact
    if kind == "float":
        return exact.to_float()
    if draw(st.booleans()):
        return TupleMembership(exact.sn, float(exact.sp))
    return TupleMembership(float(exact.sn), exact.sp)


@st.composite
def _scan_cases(draw):
    exact = draw(st.booleans())
    config = SyntheticConfig(
        n_tuples=12,
        domain_size=4,
        ignorance=draw(st.sampled_from([0.0, 0.5])),
        exact=exact,
        seed=draw(st.integers(min_value=0, max_value=50)),
    )
    relation = synthetic_relation(config, "R")
    memberships = draw(
        st.lists(_scan_memberships(), min_size=len(relation), max_size=len(relation))
    )
    relation = ExtendedRelation(
        relation.schema,
        [
            etuple.with_membership(membership)
            for etuple, membership in zip(relation, memberships)
        ],
    )
    categories = draw(
        st.frozensets(st.sampled_from(["c0", "c1", "c2", "c3"]), min_size=1)
    )
    predicate = IsPredicate("category", categories)
    if draw(st.booleans()):
        scores = draw(st.frozensets(st.sampled_from([0, 1, 2, 3]), min_size=1))
        predicate = predicate & IsPredicate("score", scores)
    threshold = draw(
        st.sampled_from(
            [SN_POSITIVE, sn_at_least("1/4"), sn_at_least(0.5), sp_at_least("3/5")]
        )
    )
    return relation, predicate, threshold


@settings(max_examples=150, deadline=None)
@given(_scan_cases())
def test_scan_equals_the_reference_filter(case):
    """Skipping zero-support tuples and the exact certain pair's
    shortcut change nothing: the same tuples, in the same order, with
    memberships equal in value, type and (floats) bits."""
    relation, predicate, threshold = case
    selected = select(relation, predicate, threshold)
    expected = _reference_select(relation, predicate, threshold)
    assert [etuple.key() for etuple in selected] == [key for key, _ in expected]
    for etuple, (_, revised) in zip(selected, expected):
        assert _same_number(etuple.membership.sn, revised.sn)
        assert _same_number(etuple.membership.sp, revised.sp)


# -- the IS scan against per-tuple supports ---------------------------------------


WORDS = ["x", "y", "z", "w"]


def _open_domain_relation(draw, kind: str) -> ExtendedRelation:
    """Tuples of an uncertain open-domain attribute: each evidence set
    compiles over the atoms it names, so a query names values its table
    has no bit for (the query bit).  The first two rows name disjoint
    words, so unless both are vacuous the column spans two atom tables
    or more."""
    schema = RelationSchema(
        "O",
        [
            Attribute("id", NumericDomain("id", low=0, integral=True), key=True),
            Attribute("word", TextDomain("word"), uncertain=True),
        ],
    )
    rows = []
    for key in range(draw(st.integers(min_value=2, max_value=10))):
        words = (WORDS[:2], WORDS[2:])[key] if key < 2 else WORDS
        masses = {}
        for element in draw(
            st.lists(
                st.one_of(
                    st.frozensets(st.sampled_from(words), min_size=1, max_size=2),
                    st.just(OMEGA),
                ),
                min_size=1,
                max_size=3,
                unique=True,
            )
        ):
            masses[element] = Fraction(draw(st.integers(min_value=1, max_value=7)))
        total = sum(masses.values())
        row_kind = _row_kind(draw, kind)
        evidence = MassFunction(
            {
                element: _typed(value / total, row_kind)
                for element, value in masses.items()
            }
        )
        rows.append(ExtendedTuple(schema, {"id": key, "word": evidence}))
    return ExtendedRelation(schema, rows)


def _typed(value: Fraction, kind: str):
    """*value* as an exact, float or (alternately) mixed mass."""
    if kind == "exact" or (kind == "mixed" and value.denominator % 2):
        return value
    return float(value)


#: How the masses of a generated column are typed: all exact, all float,
#: mixed within each row, or each row drawing one of those three.
MASS_KINDS = ["exact", "float", "mixed", "rows"]

#: The mass of a vacuous row (total ignorance: OMEGA its only focal
#: element), by row kind.
_VACUOUS = {"exact": Fraction(1), "float": 1.0, "mixed": Fraction(1)}


def _row_kind(draw, kind: str) -> str:
    """The typing of one row's masses under the column's *kind*."""
    if kind == "rows":
        return draw(st.sampled_from(["exact", "float", "mixed"]))
    return kind


def _retyped_categories(draw, relation, kind: str) -> ExtendedRelation:
    """*relation* (float when *kind* is, else exact) with each row's
    ``category`` masses typed per *kind*, and some rows made vacuous
    (``{OMEGA: 1}``)."""
    rows = []
    for etuple in relation:
        row_kind = _row_kind(draw, kind)
        if draw(st.integers(min_value=0, max_value=4)) == 0:
            masses = {OMEGA: _VACUOUS[row_kind]}
        else:
            masses = {
                element: _typed(value, row_kind)
                for element, value in etuple.evidence("category").items()
            }
        rows.append(
            ExtendedTuple(
                relation.schema,
                dict(etuple.items(), category=MassFunction(masses)),
                etuple.membership,
            )
        )
    return ExtendedRelation(relation.schema, rows)


def _is_predicates(draw, choices) -> list:
    """One to three ``is``-predicates, each on one of *choices* --
    ``(attribute, candidate values, values no row holds)`` triples -- so
    a relation is scanned repeatedly, on the same and on different
    attributes.  A predicate names a random subset of the candidates,
    all of them, or (where given) only values no row holds."""
    predicates = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        attribute, candidates, absent = draw(st.sampled_from(choices))
        subsets = [
            st.frozensets(st.sampled_from(candidates), min_size=1),
            st.just(frozenset(candidates)),
        ]
        if absent:
            subsets.append(st.just(frozenset(absent)))
        predicates.append(IsPredicate(attribute, draw(st.one_of(subsets))))
    return predicates


@st.composite
def _is_scan_cases(draw):
    """A relation of exact, float, mixed or open-domain rows, the
    ``is``-predicates its scans test, and how to derive a second relation
    from it (a selection or a union result).

    The cases an index of focal masks could get wrong are drawn often:
    a query naming every frame value (its mask is OMEGA's), values with
    no bit in an atom table (the query bit), vacuous rows, exact, float
    and mixed rows in one column, open-domain rows over different atom
    tables, and a query no row satisfies."""
    kind = draw(st.sampled_from(MASS_KINDS))
    derive = draw(st.sampled_from(["select", "union"]))
    ids = list(range(12))
    outside_id = [99]  # in the id domain, in no row: no row satisfies it
    if draw(st.booleans()):
        relation = _open_domain_relation(draw, kind)
        choices = [
            ("word", WORDS + ["v"], ["v"]),
            ("id", ids, outside_id),
        ]
        return relation, _is_predicates(draw, choices), derive
    config = SyntheticConfig(
        n_tuples=12,
        domain_size=4,
        ignorance=draw(st.sampled_from([0.0, 0.5])),
        exact=kind != "float",
        seed=draw(st.integers(min_value=0, max_value=50)),
    )
    relation = _retyped_categories(draw, synthetic_relation(config, "R"), kind)
    labels = [f"item-{key}" for key in ids] + ["none"]
    choices = [
        ("category", ["c0", "c1", "c2", "c3"], None),
        ("score", [0, 1, 2, 3], None),
        ("label", labels, ["none"]),
        ("id", ids, outside_id),
    ]
    return relation, _is_predicates(draw, choices), derive


def _assert_scan_equals_per_tuple_support(relation, predicate):
    """The scan yields this relation's own tuples with ``sn > 0``, in
    order, with the supports of ``support`` (the per-tuple ``Bel``/
    ``Pls`` pass and the checked pair) in value and type; the selection
    equals the per-tuple ``support`` + ``F_TM`` reference."""
    expected = []
    for etuple in relation:
        support = predicate.support(etuple)
        if support.sn > 0:
            expected.append((etuple, support))
    scanned = list(predicate.supported(relation))
    assert len(scanned) == len(expected)
    for (etuple, support), (reference_tuple, reference) in zip(scanned, expected):
        assert etuple is reference_tuple
        assert _same_number(support.sn, reference.sn)
        assert _same_number(support.sp, reference.sp)
    selected = select(relation, predicate)
    reference = _reference_select(relation, predicate, SN_POSITIVE)
    assert [etuple.key() for etuple in selected] == [key for key, _ in reference]
    for etuple, (_, revised) in zip(selected, reference):
        assert _same_number(etuple.membership.sn, revised.sn)
        assert _same_number(etuple.membership.sp, revised.sp)


@settings(max_examples=200, deadline=None)
@given(_is_scan_cases())
def test_is_scan_equals_per_tuple_support(case):
    """Every scan of a relation -- repeated, by predicates on different
    attributes -- and of a relation derived from it equals the per-tuple
    supports: a relation's cached evidence column serves that relation
    alone, and never yields a tuple with ``Bel = 0``."""
    relation, predicates, derive = case
    if derive == "select":
        derived = select(relation, predicates[0])
    else:
        derived = union(relation, relation, on_conflict="vacuous")
    for scanned in (relation, derived, relation):
        for predicate in predicates:
            _assert_scan_equals_per_tuple_support(scanned, predicate)
