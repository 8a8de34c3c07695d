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
    has no bit for (the query bit)."""
    schema = RelationSchema(
        "O",
        [
            Attribute("id", NumericDomain("id", low=0, integral=True), key=True),
            Attribute("word", TextDomain("word"), uncertain=True),
        ],
    )
    rows = []
    for key in range(draw(st.integers(min_value=1, max_value=10))):
        masses = {}
        for element in draw(
            st.lists(
                st.one_of(
                    st.frozensets(st.sampled_from(WORDS), min_size=1, max_size=2),
                    st.just(OMEGA),
                ),
                min_size=1,
                max_size=3,
                unique=True,
            )
        ):
            masses[element] = Fraction(draw(st.integers(min_value=1, max_value=7)))
        total = sum(masses.values())
        evidence = MassFunction(
            {element: _typed(value / total, kind) for element, value in masses.items()}
        )
        rows.append(ExtendedTuple(schema, {"id": key, "word": evidence}))
    return ExtendedRelation(schema, rows)


def _typed(value: Fraction, kind: str):
    """*value* as an exact, float or (alternately) mixed mass."""
    if kind == "exact" or (kind == "mixed" and value.denominator % 2):
        return value
    return float(value)


@st.composite
def _is_scan_cases(draw):
    kind = draw(st.sampled_from(["exact", "float", "mixed"]))
    if draw(st.booleans()):
        relation = _open_domain_relation(draw, kind)
        values = draw(st.frozensets(st.sampled_from(WORDS + ["v"]), min_size=1))
        return relation, IsPredicate("word", values)
    config = SyntheticConfig(
        n_tuples=12,
        domain_size=4,
        ignorance=draw(st.sampled_from([0.0, 0.5])),
        exact=kind != "float",
        seed=draw(st.integers(min_value=0, max_value=50)),
    )
    relation = synthetic_relation(config, "R")
    if kind == "mixed":
        relation = ExtendedRelation(
            relation.schema,
            [
                ExtendedTuple(
                    relation.schema,
                    dict(
                        etuple.items(),
                        category=MassFunction(
                            {
                                element: _typed(value, kind)
                                for element, value in etuple.evidence(
                                    "category"
                                ).items()
                            }
                        ),
                    ),
                    etuple.membership,
                )
                for etuple in relation
            ],
        )
    if draw(st.booleans()):
        scores = draw(st.frozensets(st.sampled_from([0, 1, 2, 3]), min_size=1))
        return relation, IsPredicate("score", scores)
    categories = draw(
        st.frozensets(st.sampled_from(["c0", "c1", "c2", "c3"]), min_size=1)
    )
    return relation, IsPredicate("category", categories)


@settings(max_examples=200, deadline=None)
@given(_is_scan_cases())
def test_is_scan_equals_per_tuple_support(case):
    """The scan's supports equal ``support`` (the per-tuple ``Bel``/
    ``Pls`` pass and the checked pair) in value and type, for exactly
    the tuples with ``sn > 0``; the selection equals the per-tuple
    ``support`` + ``F_TM`` reference."""
    relation, predicate = case
    expected = []
    for etuple in relation:
        support = predicate.support(etuple)
        if support.sn > 0:
            expected.append((etuple.key(), support))
    scanned = list(predicate.supported(relation))
    assert [etuple.key() for etuple, _ in scanned] == [key for key, _ in expected]
    for (_, support), (_, reference) in zip(scanned, expected):
        assert _same_number(support.sn, reference.sn)
        assert _same_number(support.sp, reference.sp)
    selected = select(relation, predicate)
    reference = _reference_select(relation, predicate, SN_POSITIVE)
    assert [etuple.key() for etuple in selected] == [key for key, _ in reference]
    for etuple, (_, revised) in zip(selected, reference):
        assert _same_number(etuple.membership.sn, revised.sn)
        assert _same_number(etuple.membership.sp, revised.sp)
