import dataclasses
import pickle
from pathlib import Path

import pytest

from ome_rdf.errors import ClassNotFoundError
from ome_rdf.namespaces import (
    OWL_CLASS, RDF_TYPE, RDFS_LABEL, RDFS_SUBCLASSOF, XSD_INTEGER, XSD_NS,
)
from ome_rdf.ontology import (
    Category,
    ConditionalCardinality,
    OntologyClass,
    OntologyRegistry,
    Origin,
    PropertyDef,
    annotation_iri,
    build_core_ontology,
    registry_to_graph,
)
from ome_rdf.rdf import Iri, Literal, parse, serialize
from ome_rdf.xsd_translator import (
    concepts_to_registry_fragment,
    extract_concepts,
    parse_xsd_subset,
)

NS = "http://ome-rdf.org/schema#"


def expected_triple_count(registry):
    """Counting oracle: derive the graph size from registry contents
    without touching registry_to_graph."""
    n = 2  # ontology header
    for c in registry.classes:
        n += 4 + (1 if c.superclass is not None else 0)
    for p in registry.properties:
        n += 4
        n += 1 if p.min_count > 0 else 0
        n += 1 if p.max_count is not None else 0
        n += 1 if p.min_exclusive is not None else 0
        n += 1 if p.max_inclusive is not None else 0
    return n


@pytest.fixture(scope="module")
def core():
    return build_core_ontology()


def translated_fragment():
    """The translator's fragment of tests/data/ome_subset.xsd, and the
    ``minCount`` triple of its ``hasPixels`` (Image/Pixels, minOccurs 1)."""
    text = (Path(__file__).parent / "data" / "ome_subset.xsd").read_text()
    frag = concepts_to_registry_fragment(extract_concepts(parse_xsd_subset(text)), NS)
    return frag, (NS + "hasPixels", NS + "minCount", Literal("1", XSD_INTEGER))


def subclassed_registry():
    """A registry whose class B is a subclass of A, and that triple."""
    a = OntologyClass(Iri(NS + "A"), "A", Category.IMAGE, Origin.TRANSLATED)
    b = OntologyClass(Iri(NS + "B"), "B", Category.IMAGE, Origin.TRANSLATED,
                      superclass=a.iri)
    return OntologyRegistry(Iri(NS), (a, b), ()), (NS + "B", RDFS_SUBCLASSOF, NS + "A")


class TestCoreRoster:
    def test_eighteen_upper_level_classes(self, core):
        assert len(core.upper_level_classes()) == 18
        assert len(core.classes) == 18

    def test_seven_extended(self, core):
        assert sum(1 for c in core.classes if c.origin is Origin.EXTENDED) == 7

    def test_five_categories_used(self, core):
        assert {c.category for c in core.classes} == set(Category)

    def test_extended_labels_present_verbatim(self, core):
        labels = {c.label for c in core.classes}
        assert {"BioSample", "Bioresource", "SampleContainer",
                "PhenotypeData", "ImagingCondition"} <= labels

    def test_category_assignment(self, core):
        by_cat = {}
        for c in core.classes:
            by_cat.setdefault(c.category, set()).add(c.label)
        assert by_cat[Category.IMAGE] == {"Image", "ROI"}
        assert by_cat[Category.EXPERIMENTER] == {"Experimenter", "ExperimenterGroup"}
        assert by_cat[Category.INSTRUMENT] == {
            "Instrument", "Detector", "Objective", "LightSource", "Filter",
            "ImagingCondition", "ElectronMicroscope"}
        assert by_cat[Category.BIOSAMPLE] == {
            "BioSample", "Bioresource", "SampleContainer", "SamplePreparation",
            "PhenotypeData"}
        assert by_cat[Category.SCREENING] == {"Screen", "Plate"}

    def test_required_properties_present(self, core):
        for label, domain, rng in [
            ("acquiredBy", "Image", "Experimenter"),
            ("acquiredWith", "Image", "Instrument"),
            ("depicts", "Image", "BioSample"),
            ("containedIn", "BioSample", "SampleContainer"),
            ("derivedFrom", "BioSample", "Bioresource"),
            ("hasImagingCondition", "Image", "ImagingCondition"),
            ("preparedBy", "BioSample", "SamplePreparation"),
            ("hasObservation", "Image", "PhenotypeData"),
        ]:
            p = core.property_by_label(label)
            assert p is not None, label
            assert core.lookup_class(p.domain).label == domain
            assert core.lookup_class(p.range).label == rng
            assert not p.is_datatype

        for label in ("accelerationVoltage", "electronGunType", "electronWavelength"):
            p = core.property_by_label(label)
            assert core.lookup_class(p.domain).label == "ImagingCondition"
            assert p.is_datatype
        assert core.property_by_label("stainingMethod").is_datatype

    def test_voltage_bounds(self, core):
        p = core.property_by_label("accelerationVoltage")
        assert p.min_exclusive == 0.0 and p.max_inclusive == 1000.0

    @pytest.mark.parametrize("label", ["acquiredBy", "acquiredWith"])
    def test_image_reference_is_at_most_one(self, core, label):
        # the OME-XML reader rejects an image's second InstrumentRef or ExperimenterRef
        assert core.property_by_label(label).max_count == 1

    def test_em_conditional_rule(self, core):
        (rule,) = core.conditional_rules
        assert core.lookup_class(rule.subject_class).label == "Image"
        assert core.lookup_class(rule.trigger_class).label == "ElectronMicroscope"
        assert rule.min_count == 1 and rule.max_count == 1

    def test_every_call_returns_the_same_registry(self, core):
        assert build_core_ontology() is core
        assert core.namespace == NS
        assert core.class_by_label("Image").iri == NS + "Image"


class TestLookup:
    def test_image_is_translated_image_category(self, core):
        cls = core.lookup_class(Iri(NS + "Image"))
        assert cls.category is Category.IMAGE and cls.origin is Origin.TRANSLATED

    def test_biosample_is_extended(self, core):
        assert core.lookup_class(Iri(NS + "BioSample")).origin is Origin.EXTENDED

    def test_plain_str_finds_the_same_class(self, core):
        # an Iri is the str of its text, so it hashes and compares as that str
        assert core.lookup_class(NS + "Image") is core.lookup_class(Iri(NS + "Image"))

    def test_unregistered_not_found(self, core):
        with pytest.raises(ClassNotFoundError):
            core.lookup_class(Iri(NS + "Banana"))

    def test_not_found_message_is_plain(self, core):
        # a KeyError's str would quote the message
        with pytest.raises(ClassNotFoundError) as err:
            core.lookup_class(Iri(NS + "Banana"))
        assert isinstance(err.value, KeyError)
        assert str(err.value) == f"no class registered for {NS}Banana"


class TestRegistryToGraph:
    def test_empty_registry_only_header(self):
        reg = OntologyRegistry(Iri(NS), (), ())
        g = registry_to_graph(reg)
        assert len(g) == 2
        subjects = {s for s, _, _ in g}
        assert subjects == {NS.rstrip("#")}

    def test_core_has_exactly_18_class_declarations(self, core):
        g = registry_to_graph(core)
        decls = [t for t in g if t[1:] == (RDF_TYPE, OWL_CLASS)]
        assert len(decls) == 18

    def test_triple_count_matches_counting_oracle(self, core):
        g = registry_to_graph(core)
        assert len(g) == expected_triple_count(core)
        assert len(g) == 210  # frozen from the oracle above

    def test_export_bytes_are_the_golden_file(self, core):
        # every change to the export is a reviewed diff of this file
        text = serialize(registry_to_graph(core), "turtle")
        golden = Path(__file__).parent / "data" / "ontology.ttl"
        assert text.encode("utf-8") == golden.read_bytes()

    @pytest.mark.parametrize("build", [translated_fragment, subclassed_registry],
                             ids=["minCount", "subClassOf"])
    def test_optional_triples_match_counting_oracle(self, build):
        registry, optional_triple = build()
        g = registry_to_graph(registry)
        assert optional_triple in g
        assert len(g) == expected_triple_count(registry)

    def test_roundtrip_keeps_counts(self, core):
        for fmt in ("turtle", "ntriples"):
            g = parse(serialize(registry_to_graph(core), fmt), fmt)
            origin_p = annotation_iri(core, "origin")
            origins = [o[0] for _, p, o in g if p == origin_p]
            assert len(origins) == 18
            assert origins.count("extended") == 7

    def test_roundtrip_preserves_category_and_origin(self, core):
        g = parse(serialize(registry_to_graph(core), "ntriples"), "ntriples")
        cat_p = annotation_iri(core, "category")
        origin_p = annotation_iri(core, "origin")
        cats = {s: o[0] for s, p, o in g if p == cat_p}
        origins = {s: o[0] for s, p, o in g if p == origin_p}
        for c in core.classes:
            assert cats[c.iri] == c.category.value
            assert origins[c.iri] == c.origin.value

    def test_labels_in_output(self, core):
        g = registry_to_graph(core)
        labels = {o[0] for _, p, o in g if p == RDFS_LABEL}
        assert {"BioSample", "Bioresource", "SampleContainer", "PhenotypeData",
                "ImagingCondition", "Image"} <= labels


_A = OntologyClass(Iri(NS + "A"), "A", Category.IMAGE, Origin.TRANSLATED)
_P = PropertyDef(Iri(NS + "p"), "p", _A.iri, _A.iri)


class TestRegistryInvariants:
    def test_duplicate_class_iri_rejected(self):
        c = OntologyClass(Iri(NS + "A"), "A", Category.IMAGE, Origin.TRANSLATED)
        with pytest.raises(ValueError):
            OntologyRegistry(Iri(NS), (c, c), ())

    def test_unregistered_superclass_rejected(self):
        c = OntologyClass(Iri(NS + "A"), "A", Category.IMAGE, Origin.TRANSLATED,
                          superclass=Iri(NS + "Missing"))
        with pytest.raises(ValueError):
            OntologyRegistry(Iri(NS), (c,), ())

    def test_unregistered_domain_rejected(self):
        p = PropertyDef(Iri(NS + "p"), "p", Iri(NS + "Missing"), Iri(NS + "A"))
        with pytest.raises(ValueError):
            OntologyRegistry(Iri(NS), (), (p,))

    def test_class_outside_namespace_rejected(self):
        c = OntologyClass(Iri("http://elsewhere/A"), "A", Category.IMAGE,
                          Origin.TRANSLATED)
        with pytest.raises(ValueError):
            OntologyRegistry(Iri(NS), (c,), ())

    @pytest.mark.parametrize("build, message", [
        (lambda: OntologyClass(Iri(NS + "A"), "", Category.IMAGE, Origin.TRANSLATED),
         "class label must be non-empty"),
        (lambda: PropertyDef(Iri(NS + "p"), "", Iri(NS + "A"), Iri(NS + "B")),
         "property label must be non-empty"),
        (lambda: PropertyDef(Iri(NS + "p"), "p", Iri(NS + "A"), Iri(NS + "B"), min_count=-1),
         "min_count must be non-negative"),
        (lambda: OntologyRegistry(Iri(NS), (_A,), (_P, _P)), f"duplicate IRI {NS}p"),
        # a property may not take the IRI of a class either
        (lambda: OntologyRegistry(Iri(NS), (_A,), (PropertyDef(_A.iri, "A", _A.iri, _A.iri),)),
         f"duplicate IRI {NS}A"),
        # a range in the registry's namespace names a registered class, and
        # one under XSD a known datatype
        (lambda: OntologyRegistry(Iri(NS), (_A,), (
            PropertyDef(Iri(NS + "q"), "q", _A.iri, Iri(NS + "Nowhere")),)),
         f"range {NS}Nowhere of {NS}q not registered"),
        (lambda: OntologyRegistry(Iri(NS), (_A,), (
            PropertyDef(Iri(NS + "q"), "q", _A.iri, Iri(XSD_NS + "nosuch")),)),
         f"range {XSD_NS}nosuch of {NS}q not registered"),
    ], ids=["class-label", "property-label", "min-count", "property-iri", "class-iri",
            "class-range", "datatype-range"])
    def test_bad_definition_rejected(self, build, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()

    def test_lookup_indexes_are_not_fields(self):
        names = [f.name for f in dataclasses.fields(OntologyRegistry)]
        assert names == ["namespace", "classes", "properties", "conditional_rules"]
        with pytest.raises(TypeError):
            OntologyRegistry(Iri(NS), (), (), (), {"junk": 1})

    @pytest.mark.parametrize("copy", [
        lambda r: pickle.loads(pickle.dumps(r)),
        lambda r: dataclasses.replace(r, conditional_rules=()),
    ], ids=["pickle", "replace"])
    def test_copies_answer_lookups(self, core, copy):
        registry = copy(core)
        image = core.class_by_label("Image")
        size_x = core.property_by_label("sizeX")
        assert registry.lookup_class(image.iri) == image
        assert registry.class_by_label("Image") == image
        assert registry.lookup_property(size_x.iri) == size_x
        assert registry.property_by_label("sizeX") == size_x
        with pytest.raises(ClassNotFoundError):
            registry.lookup_class(Iri(NS + "Missing"))

    def test_bad_cardinality_rejected(self):
        with pytest.raises(ValueError):
            PropertyDef(Iri(NS + "p"), "p", Iri(NS + "A"), Iri(NS + "B"),
                        min_count=2, max_count=1)
