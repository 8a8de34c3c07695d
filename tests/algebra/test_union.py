"""Tests for the extended union beyond the Table 4 case."""

from fractions import Fraction

import pytest

from repro.ds.combination import combine, combine_with_conflict
from repro.ds.frame import OMEGA
from repro.ds.mass import MassFunction
from repro.errors import (
    IntegrationError,
    OperationError,
    SchemaError,
    TotalConflictError,
)
from repro.model.attribute import Attribute
from repro.model.domain import EnumeratedDomain, TextDomain
from repro.model.etuple import ExtendedTuple
from repro.model.evidence import EvidenceSet
from repro.model.membership import TupleMembership
from repro.model.relation import ExtendedRelation
from repro.model.schema import RelationSchema
from repro.algebra import intersection, union, union_with_report
from repro.integration import Federation, TupleMerger
from repro.integration.merging import CONFLICT_POLICIES, ConflictRecord
from repro.datasets.generators import SyntheticConfig, synthetic_pair
from repro.datasets.restaurants import table_ra, table_rb


@pytest.fixture
def schema():
    return RelationSchema(
        "S",
        [
            Attribute("k", TextDomain("k"), key=True),
            Attribute(
                "colour",
                EnumeratedDomain("colour", ["r", "g", "b"]),
                uncertain=True,
            ),
        ],
    )


def _rel(schema, name, rows):
    tuples = [
        ExtendedTuple(schema.with_name(name), values, membership)
        for values, membership in rows
    ]
    return ExtendedRelation(schema.with_name(name), tuples)


class TestStructure:
    def test_unmatched_tuples_pass_through(self, schema):
        left = _rel(schema, "L", [({"k": "a", "colour": "r"}, (1, 1))])
        right = _rel(schema, "R", [({"k": "b", "colour": "g"}, (1, 1))])
        merged = union(left, right)
        assert sorted(t.key()[0] for t in merged) == ["a", "b"]

    def test_union_incompatible_schemas_rejected(self, schema):
        other = RelationSchema(
            "T",
            [
                Attribute("k", TextDomain("k"), key=True),
                Attribute(
                    "shade",
                    EnumeratedDomain("shade", ["r", "g", "b"]),
                    uncertain=True,
                ),
            ],
        )
        left = _rel(schema, "L", [({"k": "a", "colour": "r"}, (1, 1))])
        right = ExtendedRelation(
            other, [ExtendedTuple(other, {"k": "a", "shade": "r"}, (1, 1))]
        )
        with pytest.raises(SchemaError):
            union(left, right)

    def test_result_name(self, schema):
        left = _rel(schema, "L", [({"k": "a", "colour": "r"}, (1, 1))])
        right = _rel(schema, "R", [({"k": "a", "colour": "r"}, (1, 1))])
        assert union(left, right).name == "L_union_R"
        assert union(left, right, name="M").name == "M"

    def test_bad_conflict_policy_rejected(self, schema):
        left = _rel(schema, "L", [({"k": "a", "colour": "r"}, (1, 1))])
        with pytest.raises(OperationError):
            union(left, left.with_name("R"), on_conflict="panic")

    @pytest.mark.parametrize(
        "entry_point,error_class",
        [
            (
                lambda policy: union(table_ra(), table_rb(), on_conflict=policy),
                OperationError,
            ),
            (
                lambda policy: intersection(table_ra(), table_rb(), on_conflict=policy),
                OperationError,
            ),
            (lambda policy: TupleMerger(on_conflict=policy), IntegrationError),
        ],
        ids=["union", "intersection", "merger"],
    )
    def test_one_policy_check_for_every_entry_point(self, entry_point, error_class):
        """Union, intersection and the merger reject an unknown policy
        with the one message that lists :data:`CONFLICT_POLICIES`."""
        with pytest.raises(error_class) as excinfo:
            entry_point("panic")
        assert str(excinfo.value) == (
            f"on_conflict must be one of {CONFLICT_POLICIES}, got 'panic'"
        )


class TestConflictPolicies:
    @pytest.fixture
    def conflicting(self, schema):
        left = _rel(schema, "L", [({"k": "a", "colour": "r"}, (1, 1))])
        right = _rel(schema, "R", [({"k": "a", "colour": "g"}, (1, 1))])
        return left, right

    def test_raise_policy(self, conflicting):
        left, right = conflicting
        with pytest.raises(TotalConflictError, match="colour"):
            union(left, right)

    def test_vacuous_policy_records_and_continues(self, conflicting):
        left, right = conflicting
        merged, report = union_with_report(left, right, on_conflict="vacuous")
        assert merged.get("a").evidence("colour").is_vacuous()
        assert len(report.total_conflicts) == 1
        assert report.total_conflicts[0].attribute == "colour"

    def test_drop_policy_removes_tuple(self, conflicting):
        left, right = conflicting
        merged, report = union_with_report(left, right, on_conflict="drop")
        assert len(merged) == 0
        assert report.dropped == [("a",)]

    def test_certain_attribute_conflict_drops_under_vacuous(self, schema):
        """A certain attribute cannot hold ignorance; the tuple goes."""
        certain_schema = RelationSchema(
            "S",
            [
                Attribute("k", TextDomain("k"), key=True),
                Attribute("street", TextDomain("street")),
            ],
        )
        left = ExtendedRelation(
            certain_schema.with_name("L"),
            [
                ExtendedTuple(
                    certain_schema.with_name("L"),
                    {"k": "a", "street": "univ.ave."},
                    (1, 1),
                )
            ],
        )
        right = ExtendedRelation(
            certain_schema.with_name("R"),
            [
                ExtendedTuple(
                    certain_schema.with_name("R"),
                    {"k": "a", "street": "wash.ave."},
                    (1, 1),
                )
            ],
        )
        merged, report = union_with_report(left, right, on_conflict="vacuous")
        assert len(merged) == 0
        assert report.dropped == [("a",)]

    def test_membership_total_conflict(self, schema):
        left = _rel(schema, "L", [({"k": "a", "colour": "r"}, (1, 1))])
        right = ExtendedRelation(
            schema.with_name("R"),
            [
                ExtendedTuple(
                    schema.with_name("R"), {"k": "a", "colour": "r"}, (0, 0)
                )
            ],
            on_unsupported="allow",
        )
        with pytest.raises(TotalConflictError, match="membership"):
            union(left, right)
        merged, report = union_with_report(left, right, on_conflict="drop")
        assert len(merged) == 0
        assert any(c.attribute == "(sn,sp)" for c in report.total_conflicts)


class TestReport:
    def test_kappa_recorded_per_attribute(self):
        merged, report = union_with_report(table_ra(), table_rb())
        garden_spec = [
            c
            for c in report.conflicts
            if c.key == ("garden",) and c.attribute == "speciality"
        ]
        assert len(garden_spec) == 1
        assert garden_spec[0].kappa == Fraction(11, 40)
        assert not garden_spec[0].total

    def test_membership_conflict_recorded(self):
        _, report = union_with_report(table_ra(), table_rb())
        mehl_membership = [
            c
            for c in report.conflicts
            if c.key == ("mehl",) and c.attribute == "(sn,sp)"
        ]
        assert len(mehl_membership) == 1
        assert mehl_membership[0].kappa == Fraction(2, 5)

    def test_max_kappa(self):
        _, report = union_with_report(table_ra(), table_rb())
        assert report.max_kappa() == max(c.kappa for c in report.conflicts)

    def test_summary_mentions_counts(self):
        _, report = union_with_report(table_ra(), table_rb())
        assert "5 matched" in report.summary()
        assert "1 left-only" in report.summary()

    def test_matched_holds_key_pairs_in_left_order(self):
        _, report = union_with_report(table_ra(), table_rb())
        left_keys = [t.key() for t in table_ra()]
        assert [left for left, _ in report.matched] == [
            key for key in left_keys if table_rb().get(key) is not None
        ]
        assert all(left == right for left, right in report.matched)

    @pytest.mark.parametrize("exact", [False, True])
    def test_union_is_the_mergers_merge(self, exact):
        """The extended union and :meth:`TupleMerger.merge` run one pair
        merge: on a synthetic pair with conflicts their reports are
        equal, conflict records included, and so are their tuples."""
        config = SyntheticConfig(n_tuples=60, overlap=0.6, exact=exact, seed=3)
        left, right = synthetic_pair(config, "L", "R")
        merged, report = union_with_report(
            left, right, name="M", on_conflict="vacuous"
        )
        by_merger, merger_report = TupleMerger(on_conflict="vacuous").merge(
            left, right, name="M"
        )
        assert report.total_conflicts
        assert report == merger_report
        assert merged.same_tuples(by_merger)


class TestEvidencePooling:
    def test_certainty_shrinks_ignorance(self, schema):
        left = _rel(
            schema, "L", [({"k": "a", "colour": {"r": "1/2", ("r", "g"): "1/2"}}, (1, 1))]
        )
        right = _rel(
            schema, "R", [({"k": "a", "colour": {"r": "1/2", ("r", "g"): "1/2"}}, (1, 1))]
        )
        merged = union(left, right)
        colour = merged.get("a").evidence("colour")
        # Agreement concentrates mass on {r}.
        assert colour.mass({"r"}) > Fraction(1, 2)
        assert colour.mass({"r", "g"}) < Fraction(1, 2)

    def test_vacuous_right_is_identity(self, schema):
        from repro.model.evidence import EvidenceSet

        left = _rel(schema, "L", [({"k": "a", "colour": "r"}, ("1/2", 1))])
        # right membership (0,1) is not storable under CWA_ER; use allow.
        right = ExtendedRelation(
            schema.with_name("R"),
            [
                ExtendedTuple(
                    schema.with_name("R"),
                    {"k": "a", "colour": EvidenceSet.vacuous(schema.attribute("colour").domain)},
                    (0, 1),
                )
            ],
            on_unsupported="allow",
        )
        merged = union(left, right)
        assert merged.get("a").evidence("colour").definite_value() == "r"
        assert merged.get("a").membership.as_tuple() == (Fraction(1, 2), 1)


class TestFloatNearTotalConflict:
    """Float Dempster near total conflict: ``{a: 1-e, OMEGA: e}`` against
    ``{b: 1-e, OMEGA: e}``.  Normalizing by ``1 - kappa ~ 2e`` magnifies
    round-off, so for small *e* the combination is a total conflict and
    the conflict policies apply instead of a mass-total error."""

    EPSILONS = [1e-7, 1e-8, 1e-9, 1e-12]

    @staticmethod
    def _pair(eps):
        return (
            MassFunction({"r": 1 - eps, OMEGA: eps}),
            MassFunction({"g": 1 - eps, OMEGA: eps}),
        )

    @pytest.mark.parametrize("eps", EPSILONS)
    def test_combine_with_conflict_never_fails_validation(self, eps):
        m1, m2 = self._pair(eps)
        combined, kappa = combine_with_conflict(m1, m2)
        assert kappa == pytest.approx(1 - 2 * eps + eps * eps, abs=1e-15)
        if eps >= 1e-7:
            assert combined[{"r"}] == pytest.approx(0.5)
            assert combined[{"g"}] == pytest.approx(0.5)
        else:
            assert combined is None
            with pytest.raises(TotalConflictError):
                combine(m1, m2)

    @pytest.mark.parametrize("eps", EPSILONS)
    @pytest.mark.parametrize("policy", ["raise", "vacuous", "drop"])
    def test_one_tuple_union_applies_the_policy(self, schema, eps, policy):
        domain = schema.attribute("colour").domain
        left, right = (
            _rel(schema, name, [({"k": "a", "colour": EvidenceSet(m, domain)}, (1, 1))])
            for name, m in zip("LR", self._pair(eps))
        )
        if eps >= 1e-7:
            merged, report = union_with_report(left, right, on_conflict=policy)
            assert merged.get("a").evidence("colour").bel({"r"}) == pytest.approx(0.5)
            assert report.total_conflicts == []
            return
        if policy == "raise":
            with pytest.raises(TotalConflictError, match="colour"):
                union(left, right, on_conflict=policy)
            return
        merged, report = union_with_report(left, right, on_conflict=policy)
        assert [record.attribute for record in report.total_conflicts] == ["colour"]
        if policy == "vacuous":
            assert merged.get("a").evidence("colour").is_vacuous()
        else:
            assert len(merged) == 0
            assert report.dropped == [("a",)]


class TestFloatNearTotalMembershipConflict:
    """The membership rule ``F`` near total conflict: ``(1-e, 1)``
    against ``(0, e)`` or ``(e, e)``.  Float normalization by ``1 - kappa
    ~ 2e`` breaks the masses' total (and, at some *e*, ``sn <= sp``), so
    for small *e* the pair is a total conflict and the merge's policies
    apply instead of a range-check error, as for the evidence rule."""

    EPSILONS = [1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12]

    @pytest.mark.parametrize("eps", EPSILONS)
    @pytest.mark.parametrize("sn", ["zero", "eps"])
    def test_combine_reports_total_conflict(self, eps, sn):
        certain = TupleMembership(1 - eps, 1)
        doubtful = TupleMembership(0 if sn == "zero" else eps, eps)
        combined, kappa = certain.combine_dempster_with_conflict(doubtful)
        assert kappa == pytest.approx(1 - 2 * eps + eps * eps, abs=1e-15)
        if eps >= 1e-7:
            assert combined.sn == pytest.approx(0.5, abs=1e-7)
            assert combined.sp == pytest.approx(0.5, abs=1e-7)
        else:
            assert combined is None
            with pytest.raises(TotalConflictError):
                certain.combine_dempster(doubtful)

    def test_exact_pair_never_conflicts(self):
        eps = Fraction(1, 10**12)
        combined, kappa = TupleMembership(1 - eps, 1).combine_dempster_with_conflict(
            TupleMembership(0, eps)
        )
        assert kappa == (1 - eps) ** 2
        assert combined.as_tuple() == ((1 - eps) / (2 - eps), 1 / (2 - eps))

    @staticmethod
    def _pair(schema, eps):
        return tuple(
            _rel(schema, name, [({"k": "a", "colour": "r"}, membership)])
            for name, membership in (("L", (1 - eps, 1)), ("R", (eps, eps)))
        )

    @pytest.mark.parametrize("eps", EPSILONS)
    @pytest.mark.parametrize("policy", ["raise", "vacuous", "drop"])
    def test_one_tuple_union_applies_the_policy(self, schema, eps, policy):
        left, right = self._pair(schema, eps)
        if eps >= 1e-7:
            merged, report = union_with_report(left, right, on_conflict=policy)
            assert merged.get("a").membership.sn == pytest.approx(0.5, abs=1e-7)
            assert report.total_conflicts == []
            return
        if policy == "raise":
            with pytest.raises(TotalConflictError, match="membership"):
                union(left, right, on_conflict=policy)
            return
        # No ignorance fallback exists for a membership pair: both
        # recording policies drop the tuple.
        merged, report = union_with_report(left, right, on_conflict=policy)
        assert len(merged) == 0
        assert report.dropped == [("a",)]
        assert report.total_conflicts == [ConflictRecord(("a",), "(sn,sp)", 1, True)]

    @pytest.mark.parametrize("eps", EPSILONS)
    @pytest.mark.parametrize("policy", ["raise", "vacuous", "drop"])
    def test_one_tuple_federation_applies_the_policy(self, schema, eps, policy):
        federation = Federation(TupleMerger(on_conflict=policy))
        for relation in self._pair(schema, eps):
            federation.add_source(relation.name, relation)
        if eps >= 1e-7:
            integrated, _ = federation.integrate(name="F")
            on_demand = federation.integrate_entity("a", name="F")
            assert on_demand.membership.sn == pytest.approx(0.5, abs=1e-7)
            assert on_demand.membership == integrated.get("a").membership
            return
        if policy == "raise":
            with pytest.raises(TotalConflictError, match="membership"):
                federation.integrate()
            with pytest.raises(TotalConflictError, match="membership"):
                federation.integrate_entity("a")
            return
        integrated, report = federation.integrate()
        assert len(integrated) == 0
        assert report.total_conflicts == 1
        assert federation.integrate_entity("a") is None
