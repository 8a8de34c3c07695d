"""Tests for tuple merging, domain mapping, preprocessing and the full
Figure 1 pipeline."""

from fractions import Fraction

import pytest

from repro.errors import IntegrationError
from repro.ds.frame import OMEGA
from repro.ds.mass import MassFunction
from repro.model.attribute import Attribute
from repro.model.domain import EnumeratedDomain, NumericDomain, TextDomain
from repro.model.etuple import ExtendedTuple
from repro.model.evidence import EvidenceSet
from repro.model.relation import ExtendedRelation
from repro.model.schema import RelationSchema
from repro.algebra import union
from repro.algebra.union import union_with_report
from repro.integration import (
    AttributeCorrespondence,
    AttributePreprocessor,
    DomainValueMapping,
    IntegrationPipeline,
    SchemaMapping,
    TupleMerger,
)
from repro.integration.merging import MergeReport, _combine_evidence
from repro.stream import StreamEngine
from repro.datasets.restaurants import (
    expected_table4,
    rating_domain,
    table_ra,
    table_rb,
)


class TestTupleMerger:
    def test_all_evidential_merge_equals_union(self):
        merged, _ = TupleMerger().merge(table_ra(), table_rb())
        assert merged.same_tuples(expected_table4())

    def test_per_attribute_method_override(self):
        merger = TupleMerger(methods={"best_dish": "prefer_left"})
        merged, _ = merger.merge(table_ra(), table_rb())
        garden = merged.get("garden")
        # best_dish kept from R_A; rating still Dempster-combined.
        assert garden.evidence("best_dish").mass({"d35", "d36"}) == Fraction(1, 2)
        assert garden.evidence("rating").mass({"ex"}) == Fraction(1, 7)

    def test_intersection_method(self):
        merger = TupleMerger(default_method="intersection")
        merged, _ = merger.merge(table_ra(), table_rb())
        garden = merged.get("garden")
        # Cores: {si,hu}+OMEGA vs {si,hu}+OMEGA -> with OMEGA present the
        # core is the whole domain... garden speciality cores both OMEGA-
        # containing, so vacuous; best_dish cores {d31,d35,d36} & {d31,d35}.
        assert garden.evidence("best_dish").mass({"d31", "d35"}) == 1

    def test_merge_report_summary(self):
        _, report = TupleMerger().merge(table_ra(), table_rb())
        assert "5 matched" in report.summary()

    def test_bad_conflict_policy(self):
        with pytest.raises(IntegrationError):
            TupleMerger(on_conflict="explode")

    def test_custom_matching_pairs_different_keys(self):
        schema = RelationSchema(
            "S",
            [
                Attribute("id", TextDomain("id"), key=True),
                Attribute(
                    "colour",
                    EnumeratedDomain("colour", ["r", "g"]),
                    uncertain=True,
                ),
            ],
        )
        left = ExtendedRelation(
            schema.with_name("L"),
            [
                ExtendedTuple(
                    schema.with_name("L"),
                    {"id": "L1", "colour": {"r": "1/2", OMEGA: "1/2"}},
                )
            ],
        )
        right = ExtendedRelation(
            schema.with_name("R"),
            [
                ExtendedTuple(
                    schema.with_name("R"),
                    {"id": "R1", "colour": {"r": "1/2", OMEGA: "1/2"}},
                )
            ],
        )
        from repro.integration.entity_identification import TupleMatching

        matching = TupleMatching(pairs=[(("L1",), ("R1",))])
        merged, report = TupleMerger().merge(left, right, matching)
        assert len(merged) == 1
        # The merged tuple carries the left key.
        assert merged.get("L1") is not None
        assert merged.get("L1").evidence("colour").mass({"r"}) == Fraction(3, 4)


class TestDomainMapping:
    @pytest.fixture
    def stars(self):
        return DomainValueMapping(
            "stars-to-rating",
            {5: "ex", 4: {"ex", "gd"}, 3: "gd", 2: "avg", 1: "avg"},
            target_domain=rating_domain(),
        )

    def test_one_to_one(self, stars):
        assert stars.map_value(5) == frozenset({"ex"})

    def test_one_to_many(self, stars):
        assert stars.map_value(4) == frozenset({"ex", "gd"})

    def test_unmapped_error(self, stars):
        with pytest.raises(IntegrationError, match="no entry"):
            stars.map_value(0)

    def test_unmapped_identity(self):
        mapping = DomainValueMapping("m", {}, unmapped="identity")
        assert mapping.map_value("x") == frozenset({"x"})

    def test_unmapped_ignore_needs_enumerable_domain(self):
        mapping = DomainValueMapping(
            "m", {}, target_domain=rating_domain(), unmapped="ignore"
        )
        assert mapping.map_value("anything") == rating_domain().frame().values

    def test_image_validated(self):
        with pytest.raises(IntegrationError, match="outside domain"):
            DomainValueMapping("m", {1: "terrible"}, target_domain=rating_domain())

    def test_map_evidence(self, stars):
        source = EvidenceSet({frozenset({5}): "1/2", frozenset({4}): "1/2"})
        mapped = stars.map_evidence(source)
        assert mapped.mass({"ex"}) == Fraction(1, 2)
        assert mapped.mass({"ex", "gd"}) == Fraction(1, 2)

    def test_transform_scalar_singleton(self, stars):
        transform = stars.as_transform()
        assert transform(5) == "ex"

    def test_transform_scalar_ambiguous_becomes_evidence(self, stars):
        transform = stars.as_transform()
        result = transform(4)
        assert isinstance(result, EvidenceSet)
        assert result.mass({"ex", "gd"}) == 1


class TestPreprocessing:
    @pytest.fixture
    def local_schema(self):
        return RelationSchema(
            "local",
            [
                Attribute("restaurant", TextDomain("restaurant"), key=True),
                Attribute("stars", NumericDomain("stars", low=1, high=5)),
            ],
        )

    @pytest.fixture
    def global_schema(self):
        return RelationSchema(
            "global",
            [
                Attribute("rname", TextDomain("rname"), key=True),
                Attribute("rating", rating_domain(), uncertain=True),
            ],
        )

    def test_rename_and_recode(self, local_schema, global_schema):
        stars = DomainValueMapping(
            "stars", {5: "ex", 4: {"ex", "gd"}, 3: "gd", 2: "avg", 1: "avg"},
            target_domain=rating_domain(),
        )

        def recode(value):
            # value arrives as a definite EvidenceSet for non-key attrs.
            return stars.map_evidence(value)

        mapping = SchemaMapping(
            global_schema,
            [
                AttributeCorrespondence("restaurant", "rname"),
                AttributeCorrespondence("stars", "rating", recode),
            ],
        )
        local = ExtendedRelation(
            local_schema,
            [
                ExtendedTuple(local_schema, {"restaurant": "wok", "stars": 4}),
                ExtendedTuple(local_schema, {"restaurant": "olive", "stars": 3}),
            ],
        )
        preprocessed = AttributePreprocessor(mapping).preprocess(local)
        assert preprocessed.schema.name == "global"
        wok = preprocessed.get("wok")
        assert wok.evidence("rating").mass({"ex", "gd"}) == 1
        olive = preprocessed.get("olive")
        assert olive.evidence("rating").definite_value() == "gd"

    def test_derivations(self, global_schema):
        vote_schema = RelationSchema(
            "votes",
            [
                Attribute("rname", TextDomain("rname"), key=True),
                Attribute("ex_votes", NumericDomain("ex_votes", integral=True)),
                Attribute("gd_votes", NumericDomain("gd_votes", integral=True)),
            ],
        )

        def consolidate(etuple):
            counts = {
                "ex": etuple.value("ex_votes").definite_value(),
                "gd": etuple.value("gd_votes").definite_value(),
            }
            return EvidenceSet.from_counts(
                {k: v for k, v in counts.items() if v}, rating_domain()
            )

        mapping = SchemaMapping(
            global_schema,
            [AttributeCorrespondence("rname", "rname")],
            derivations={"rating": consolidate},
        )
        votes = ExtendedRelation(
            vote_schema,
            [
                ExtendedTuple(
                    vote_schema, {"rname": "wok", "ex_votes": 2, "gd_votes": 4}
                )
            ],
        )
        preprocessed = AttributePreprocessor(mapping).preprocess(votes)
        rating = preprocessed.get("wok").evidence("rating")
        # The Section 1.2 example: votes 2/4 -> [ex^0.33, gd^0.67].
        assert rating.mass({"ex"}) == Fraction(1, 3)
        assert rating.mass({"gd"}) == Fraction(2, 3)

    def test_uncovered_target_rejected(self, global_schema):
        with pytest.raises(IntegrationError, match="uncovered"):
            SchemaMapping(
                global_schema, [AttributeCorrespondence("rname", "rname")]
            )

    def test_double_cover_rejected(self, global_schema):
        with pytest.raises(IntegrationError, match="twice"):
            SchemaMapping(
                global_schema,
                [
                    AttributeCorrespondence("a", "rname"),
                    AttributeCorrespondence("b", "rname"),
                    AttributeCorrespondence("c", "rating"),
                ],
            )

    def test_identity_mapping(self):
        from repro.datasets.restaurants import restaurant_schema

        mapping = SchemaMapping.identity(restaurant_schema("G"))
        preprocessed = AttributePreprocessor(mapping).preprocess(table_ra())
        assert preprocessed.name == "G"
        assert len(preprocessed) == 6


class TestPipeline:
    def test_reproduces_table4(self):
        result = IntegrationPipeline().run(table_ra(), table_rb())
        assert result.integrated.same_tuples(expected_table4())
        assert len(result.matching.pairs) == 5

    def test_result_carries_intermediates(self):
        result = IntegrationPipeline().run(table_ra(), table_rb())
        assert result.preprocessed_left.same_tuples(table_ra())
        assert "5 matched" in result.report.summary()

    def test_reliability_discounting_weakens_right(self):
        trusted = IntegrationPipeline().run(table_ra(), table_rb())
        distrusted = IntegrationPipeline(reliabilities=(1, "1/2")).run(
            table_ra(), table_rb()
        )
        # garden speciality: discounted R_B pulls the combination toward
        # R_A's masses and keeps more ignorance.
        full = trusted.integrated.get("garden").evidence("speciality")
        weak = distrusted.integrated.get("garden").evidence("speciality")
        assert weak.ignorance() > full.ignorance()

    def test_zero_reliability_makes_source_vacuous(self):
        result = IntegrationPipeline(reliabilities=(1, 0)).run(
            table_ra(), table_rb()
        )
        # With R_B fully discounted, matched tuples equal R_A's evidence...
        garden = result.integrated.get("garden")
        original = table_ra().get("garden")
        for name in ("speciality", "best_dish", "rating"):
            assert garden.evidence(name) == original.evidence(name)

    def test_bad_reliabilities(self):
        with pytest.raises(IntegrationError):
            IntegrationPipeline(reliabilities=(1,))
        with pytest.raises(IntegrationError):
            IntegrationPipeline(reliabilities=(1, 2))

    def test_pipeline_result_name(self):
        result = IntegrationPipeline().run(table_ra(), table_rb(), name="R")
        assert result.integrated.name == "R"


class TestSingleEntityMerge:
    """The reusable per-entity core exposed for incremental engines."""

    def test_merge_pair_matches_relation_merge(self):
        ra, rb = table_ra(), table_rb()
        merger = TupleMerger()
        merged_relation, _ = merger.merge(ra, rb, name="R")
        pair = merger.merge_pair(ra.get(("wok",)), rb.get(("wok",)))
        assert pair == merged_relation.get(("wok",))

    def test_merge_entity_folds_many_sources(self):
        ra, rb = table_ra(), table_rb()
        merger = TupleMerger()
        merged_relation, _ = merger.merge(ra, rb, name="R")
        folded = merger.merge_entity([ra.get(("wok",)), rb.get(("wok",))])
        assert folded == merged_relation.get(("wok",))

    def test_merge_pair_rejects_different_entities(self):
        ra = table_ra()
        with pytest.raises(IntegrationError, match="same entity"):
            TupleMerger().merge_pair(ra.get(("wok",)), ra.get(("garden",)))

    def test_merge_entity_rejects_mixed_keys(self):
        ra = table_ra()
        with pytest.raises(IntegrationError, match="one entity"):
            TupleMerger().merge_entity([ra.get(("wok",)), ra.get(("garden",))])

    def test_merge_entity_needs_a_tuple(self):
        with pytest.raises(IntegrationError, match="at least one"):
            TupleMerger().merge_entity([])

    def test_merge_entity_single_tuple_is_identity(self):
        ra = table_ra()
        folded = TupleMerger().merge_entity([ra.get(("wok",))])
        assert folded == ra.get(("wok",))


class TestEqualCertainValues:
    """Two equal certain values merge to the left value itself: the
    union, the merger and the stream refold keep the left
    :class:`EvidenceSet` object, with kappa the int ``0``.  A different
    value, or ``Fraction(1)`` against ``1.0``, builds a new one."""

    SCHEMA = RelationSchema(
        "S",
        [
            Attribute("id", NumericDomain("id", low=0, integral=True), key=True),
            Attribute("label", TextDomain("label")),
            Attribute(
                "category",
                EnumeratedDomain("category", ["c0", "c1", "c2"]),
                uncertain=True,
            ),
        ],
    )

    def tuple_of(self, label, category="[c0^0.5, c1^0.5]", key=1):
        return ExtendedTuple(
            self.SCHEMA, {"id": key, "label": label, "category": category}
        )

    def label_of(self, etuple):
        return etuple.evidence("label")

    def test_combine_evidence_returns_the_left_value(self):
        left = self.label_of(self.tuple_of("item-1"))
        right = self.label_of(self.tuple_of("item-1"))
        combined, kappa = _combine_evidence(left, right)
        assert combined is left
        assert kappa == 0 and type(kappa) is int

    def test_different_value_conflicts(self):
        left = self.label_of(self.tuple_of("item-1"))
        right = self.label_of(self.tuple_of("item-2"))
        assert _combine_evidence(left, right) == (None, 1)

    def test_fraction_one_against_float_one_builds_a_new_value(self):
        domain = self.SCHEMA.attribute("label").domain
        left = EvidenceSet(MassFunction({"item-1": Fraction(1)}), domain)
        right = EvidenceSet(MassFunction({"item-1": 1.0}), domain)
        combined, kappa = _combine_evidence(left, right)
        assert combined is not left and combined is not right
        assert kappa == 0 and type(kappa) is int
        (mass,) = [value for _, value in combined.items()]
        assert type(mass) is float and mass == 1.0

    def test_union_keeps_the_left_value(self):
        left = ExtendedRelation(self.SCHEMA, [self.tuple_of("item-1")])
        right = ExtendedRelation(
            self.SCHEMA, [self.tuple_of("item-1", "[c1^0.25, Ω^0.75]")]
        )
        merged, report = union_with_report(left, right)
        (result,) = merged
        assert self.label_of(result) is self.label_of(left.get((1,)))
        assert [record.attribute for record in report.conflicts] == ["category"]

    def test_merger_keeps_the_left_value(self):
        left = self.tuple_of("item-1")
        right = self.tuple_of("item-1", "[c1^0.25, Ω^0.75]")
        report = MergeReport()
        merged = TupleMerger().merge_pair(left, right, report=report)
        assert self.label_of(merged) is self.label_of(left)
        assert self.label_of(merged) == self.label_of(right)
        assert all(record.attribute != "label" for record in report.conflicts)

    def test_merger_records_a_different_value_as_total_conflict(self):
        left = self.tuple_of("item-1")
        right = self.tuple_of("item-2")
        report = MergeReport()
        assert TupleMerger(on_conflict="drop").merge_pair(
            left, right, report=report
        ) is None
        assert [(r.attribute, r.kappa, r.total) for r in report.conflicts] == [
            ("label", 1, True)
        ]

    def test_stream_refold_keeps_the_first_value(self):
        engine = StreamEngine(self.SCHEMA, name="F")
        for source, category in (
            ("a", "[c0^0.5, c1^0.5]"),
            ("b", "[c1^0.25, Ω^0.75]"),
            ("c", "[c0^0.5, Ω^0.5]"),
        ):
            engine.upsert(source, self.tuple_of("item-1", category))
        engine.flush()
        first = self.label_of(engine.source_snapshot("a").get((1,)))
        assert self.label_of(engine.relation.get((1,))) is first
        engine.retract("c", 1)  # refolds the entity from a and b
        engine.flush()
        assert self.label_of(engine.relation.get((1,))) is first
