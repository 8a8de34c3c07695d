"""Tests for the analysis layer (decisions, quality) and multi-source
federation."""

import itertools
from fractions import Fraction

import pytest

from repro.errors import IntegrationError, OperationError
from repro.algebra import union
from repro.analysis import decide, relation_quality, attribute_uncertainty
from repro.integration import Federation, TupleMerger
from repro.datasets.generators import SyntheticConfig, synthetic_relation
from repro.datasets.restaurants import table_ra, table_rb


@pytest.fixture
def integrated():
    return union(table_ra(), table_rb(), name="R")


class TestDecisions:
    def test_max_belief_on_integrated_relation(self, integrated):
        rows = {r.key[0]: r for r in decide(integrated, "max_belief")}
        assert rows["garden"].values["speciality"] == "si"
        assert rows["garden"].confidence["speciality"] == Fraction(19, 29)
        assert rows["wok"].values["rating"] == "gd"
        assert rows["wok"].confidence["rating"] == 1

    def test_policies_can_disagree(self):
        """max_belief and max_plausibility pick different values when a
        set-focal element overlaps a weaker singleton."""
        from repro.model.attribute import Attribute
        from repro.model.domain import EnumeratedDomain, TextDomain
        from repro.model.etuple import ExtendedTuple
        from repro.model.relation import ExtendedRelation
        from repro.model.schema import RelationSchema

        schema = RelationSchema(
            "S",
            [
                Attribute("k", TextDomain("k"), key=True),
                Attribute(
                    "v", EnumeratedDomain("v", ["a", "b", "c"]), uncertain=True
                ),
            ],
        )
        relation = ExtendedRelation(
            schema,
            [
                ExtendedTuple(
                    schema,
                    # Bel: a = 2/5 beats b = 1/5.
                    # Pls: b = 1/5 + 2/5 = 3/5 beats a = 2/5.
                    {"k": "t", "v": {"a": "2/5", ("b", "c"): "2/5", "b": "1/5"}},
                )
            ],
        )
        cautious = decide(relation, "max_belief")[0].values["v"]
        credulous = decide(relation, "max_plausibility")[0].values["v"]
        assert cautious == "a"
        assert credulous == "b"

    def test_membership_threshold_filters(self, integrated):
        all_rows = decide(integrated)
        confident = decide(integrated, "max_belief", min_membership_sn="9/10")
        assert len(confident) < len(all_rows)
        assert all(r.membership.sn >= Fraction(9, 10) for r in confident)

    def test_unknown_policy(self, integrated):
        with pytest.raises(OperationError):
            decide(integrated, "coin_flip")

    def test_keys_and_certain_attributes_pass_through(self, integrated):
        row = next(r for r in decide(integrated) if r.key == ("wok",))
        assert row.values["rname"] == "wok"
        assert row.values["street"] == "wash.ave."
        assert row.confidence["street"] == 1


OMEGA_KEY = __import__("repro.ds.frame", fromlist=["OMEGA"]).OMEGA


class TestQuality:
    def test_paper_relation_quality(self):
        report = relation_quality(table_ra())
        assert report.n_tuples == 6
        assert report.certain_tuples == 5
        assert 0 < report.mean_sn <= 1
        assert report.summary().startswith("RA: 6 tuples")

    def test_integration_improves_quality(self, integrated):
        """Pooling evidence lowers ignorance and nonspecificity."""
        before = relation_quality(table_rb())
        after = relation_quality(integrated)
        spec_before = before.attribute("speciality")
        spec_after = after.attribute("speciality")
        assert spec_after.mean_ignorance < spec_before.mean_ignorance
        assert spec_after.mean_nonspecificity < spec_before.mean_nonspecificity

    def test_attribute_uncertainty_unknown_attribute(self):
        with pytest.raises(OperationError):
            attribute_uncertainty(table_ra(), "ghost")

    def test_empty_relation(self):
        from repro.model.relation import ExtendedRelation

        empty = ExtendedRelation(table_ra().schema, [])
        report = relation_quality(empty)
        assert report.n_tuples == 0
        assert report.mean_sn == 0.0


class TestFederation:
    def test_two_source_federation_matches_union(self):
        federation = Federation()
        federation.add_source("daily", table_ra())
        federation.add_source("tribune", table_rb())
        integrated, report = federation.integrate(name="R")
        assert integrated.same_tuples(union(table_ra(), table_rb(), name="R"))
        assert len(report.steps) == 1
        assert report.total_conflicts == 0

    def test_three_sources_order_independent(self):
        """Dempster's rule is associative/commutative, so any source
        ordering yields the same federation.

        Full ignorance mass on every evidence set guarantees kappa < 1,
        so no total-conflict fallback fires -- the fallback (like any
        exception handling) is *not* associative, which is precisely why
        order independence only holds on the conflict-free path.
        """
        config = SyntheticConfig(
            n_tuples=12, conflict=0.0, ignorance=1.0, seed=5
        )
        sources = {
            "a": synthetic_relation(config, "A"),
            "b": synthetic_relation(config, "B"),
            "c": synthetic_relation(config, "C"),
        }
        results = []
        for ordering in itertools.permutations(sources):
            federation = Federation(TupleMerger(on_conflict="vacuous"))
            for name in ordering:
                federation.add_source(name, sources[name])
            integrated, _ = federation.integrate(name="F")
            results.append(integrated)
        first = results[0]
        for other in results[1:]:
            assert first.same_tuples(other)

    def test_reliability_discounting(self):
        trusted = Federation()
        trusted.add_source("a", table_ra())
        trusted.add_source("b", table_rb())
        hedged = Federation()
        hedged.add_source("a", table_ra())
        hedged.add_source("b", table_rb(), reliability="1/2")
        full, _ = trusted.integrate()
        weak, _ = hedged.integrate()
        garden_full = full.get("garden").evidence("speciality")
        garden_weak = weak.get("garden").evidence("speciality")
        assert garden_weak.ignorance() > garden_full.ignorance()

    def test_single_source(self):
        federation = Federation()
        federation.add_source("only", table_ra())
        integrated, report = federation.integrate(name="F")
        assert integrated.same_tuples(table_ra().with_name("F"))
        assert report.steps == []

    def test_empty_federation_rejected(self):
        with pytest.raises(IntegrationError):
            Federation().integrate()

    def test_duplicate_source_rejected(self):
        federation = Federation()
        federation.add_source("a", table_ra())
        with pytest.raises(IntegrationError, match="duplicate"):
            federation.add_source("a", table_rb())

    def test_bad_reliability_rejected(self):
        federation = Federation()
        with pytest.raises(IntegrationError):
            federation.add_source("a", table_ra(), reliability=2)

    def test_report_summary_lists_steps(self):
        federation = Federation()
        federation.add_source("a", table_ra())
        federation.add_source("b", table_rb())
        _, report = federation.integrate()
        assert "(+) b:" in report.summary()


class TestEntityLevelIntegration:
    """On-demand per-entity merging (federated point queries)."""

    @pytest.fixture
    def federation(self):
        federation = Federation()
        federation.add_source("daily", table_ra())
        federation.add_source("tribune", table_rb())
        return federation

    def test_matches_full_materialization(self, federation):
        integrated, _ = federation.integrate(name="R")
        for key in integrated.keys():
            on_demand = federation.integrate_entity(key, name="R")
            materialized = integrated.get(key)
            assert on_demand.membership == materialized.membership
            for attr_name in ("speciality", "best_dish", "rating"):
                assert on_demand.evidence(attr_name) == materialized.evidence(
                    attr_name
                )

    def test_scalar_key_convenience(self, federation):
        assert federation.integrate_entity("wok") is not None

    def test_unknown_entity(self, federation):
        assert federation.integrate_entity(("nowhere",)) is None

    def test_single_source_entity(self, federation):
        """ashiana exists only in R_A; the point merge returns it as-is."""
        on_demand = federation.integrate_entity(("ashiana",))
        original = table_ra().get("ashiana")
        assert on_demand.membership == original.membership

    def test_reliability_applies_per_entity(self):
        federation = Federation()
        federation.add_source("daily", table_ra())
        federation.add_source("tribune", table_rb(), reliability="1/2")
        hedged = federation.integrate_entity(("garden",))
        trusted_federation = Federation()
        trusted_federation.add_source("daily", table_ra())
        trusted_federation.add_source("tribune", table_rb())
        trusted = trusted_federation.integrate_entity(("garden",))
        assert (
            hedged.evidence("speciality").ignorance()
            > trusted.evidence("speciality").ignorance()
        )

    def test_empty_federation_rejected(self):
        with pytest.raises(IntegrationError):
            Federation().integrate_entity(("x",))

    def test_result_takes_the_federation_name(self, federation):
        """Matched or single-source, the tuple comes back under the
        integrated relation's name, as in the materialization."""
        assert federation.integrate_entity("wok", name="R").schema.name == "R"
        assert federation.integrate_entity("ashiana", name="R").schema.name == "R"

    def test_fully_discounted_source_is_skipped(self):
        federation = Federation()
        federation.add_source("daily", table_ra())
        federation.add_source("tribune", table_rb(), reliability=0)
        on_demand = federation.integrate_entity("garden")
        assert on_demand.membership == table_ra().get("garden").membership

    def test_dropped_entity_is_none(self):
        """A total conflict under ``drop`` drops the entity, as the
        streaming engine's refold does, even when a later source agrees
        with one side."""
        left, right, bystander = TestFederationTreeFold()._conflicting_sources()
        federation = Federation(TupleMerger(on_conflict="drop"))
        federation.add_source("metro", left)
        federation.add_source("herald", right)
        federation.add_source("bystander", bystander)
        assert federation.integrate_entity("t") is None


class TestFederationTreeFold:
    def _conflicting_sources(self):
        """Two relations with an irreconcilable attribute on key 't'."""
        from repro.model.attribute import Attribute
        from repro.model.domain import EnumeratedDomain, TextDomain
        from repro.model.etuple import ExtendedTuple
        from repro.model.relation import ExtendedRelation
        from repro.model.schema import RelationSchema

        schema = RelationSchema(
            "S",
            [
                Attribute("k", TextDomain("k"), key=True),
                Attribute(
                    "v", EnumeratedDomain("v", ["a", "b", "c"]), uncertain=True
                ),
            ],
        )

        def one(name, focal):
            return ExtendedRelation(
                schema.with_name(name),
                [ExtendedTuple(schema, {"k": "t", "v": {focal: 1}})],
            )

        return one("left", "a"), one("right", "b"), one("bystander", "a")

    def test_total_conflict_error_names_the_source_pair(self):
        from repro.errors import TotalConflictError

        left, right, bystander = self._conflicting_sources()
        federation = Federation()
        federation.add_source("metro", left)
        federation.add_source("herald", right)
        with pytest.raises(TotalConflictError) as excinfo:
            federation.integrate()
        message = str(excinfo.value)
        assert "'metro'" in message and "'herald'" in message

    def test_conflict_labels_cover_merged_groups(self):
        """With four sources the second round merges groups; the error
        names the composite labels so the administrator can bisect."""
        from repro.errors import TotalConflictError

        left, right, bystander = self._conflicting_sources()
        federation = Federation()
        # Pairs (p, q) and (r, s) are internally consistent; the final
        # group-vs-group merge is the one that conflicts.
        federation.add_source("p", left)
        federation.add_source("q", bystander)
        federation.add_source("r", right)
        federation.add_source("s", right.with_name("right2"))
        with pytest.raises(TotalConflictError) as excinfo:
            federation.integrate()
        assert "'p+q'" in str(excinfo.value)
        assert "'r+s'" in str(excinfo.value)

    @staticmethod
    def _two_entity_sources(names, uncertain):
        """Per source name, a relation holding ``t`` with ``v`` = the
        name's focal value and ``u`` with ``v`` = ``a`` (conflict-free)."""
        from repro.model.attribute import Attribute
        from repro.model.domain import EnumeratedDomain, TextDomain
        from repro.model.etuple import ExtendedTuple
        from repro.model.relation import ExtendedRelation
        from repro.model.schema import RelationSchema

        schema = RelationSchema(
            "S",
            [
                Attribute("k", TextDomain("k"), key=True),
                Attribute(
                    "v", EnumeratedDomain("v", ["a", "b", "c"]), uncertain=uncertain
                ),
            ],
        )
        focal = {"metro": "a", "herald": "b", "bystander": "a", "echo": "a"}
        return {
            name: ExtendedRelation(
                schema.with_name(name),
                [
                    ExtendedTuple(schema, {"k": "t", "v": {focal[name]: 1}}),
                    ExtendedTuple(schema, {"k": "u", "v": {"a": 1}}),
                ],
            )
            for name in names
        }

    @pytest.mark.parametrize(
        "names",
        [
            ("metro", "herald", "bystander"),
            ("bystander", "echo", "metro", "herald"),
        ],
    )
    @pytest.mark.parametrize(
        "on_conflict, uncertain",
        [("drop", True), ("drop", False), ("vacuous", False)],
    )
    def test_an_entity_dropped_at_any_step_stays_dropped(
        self, names, on_conflict, uncertain
    ):
        """metro and herald conflict totally on ``t``; under ``drop``, or
        under ``vacuous`` on a certain attribute, the step that merges
        them drops ``t``.  A source merged later that agrees with one
        side must not bring it back: the materialized integration agrees
        with ``integrate_entity`` and with the stream engine."""
        from repro.stream import StreamEngine

        sources = self._two_entity_sources(names, uncertain)
        merger = TupleMerger(on_conflict=on_conflict)
        federation = Federation(merger)
        engine = StreamEngine(sources[names[0]].schema, name="F", merger=merger)
        for name, relation in sources.items():
            federation.add_source(name, relation)
            for etuple in relation:
                engine.upsert(name, etuple)
        engine.flush()
        integrated, report = federation.integrate(name="F")
        dropped = [key for _, step in report.steps for key in step.dropped]
        assert dropped == [("t",)]
        assert federation.integrate_entity("t", name="F") is None
        assert ("t",) not in integrated
        assert integrated.keys() == engine.relation.keys() == (("u",),)
        assert integrated.get(("u",)) == federation.integrate_entity("u", name="F")
        assert integrated.same_tuples(engine.relation)

    def test_five_source_tree_fold_equals_sequential_fold(self):
        """The balanced tree fold must reproduce the left-to-right fold
        exactly (associativity, exact arithmetic)."""
        config = SyntheticConfig(
            n_tuples=10, conflict=0.4, ignorance=1.0, seed=11
        )
        relations = {
            name: synthetic_relation(config, name) for name in "ABCDE"
        }
        federation = Federation(TupleMerger(on_conflict="vacuous"))
        for name, relation in relations.items():
            federation.add_source(name, relation)
        integrated, report = federation.integrate(name="F")
        assert len(report.steps) == len(relations) - 1

        merger = TupleMerger(on_conflict="vacuous")
        names = list(relations)
        accumulated = relations[names[0]]
        for name in names[1:]:
            accumulated, _ = merger.merge(accumulated, relations[name], name="F")
        assert integrated.same_tuples(accumulated)
