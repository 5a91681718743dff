import random
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from ome_rdf.errors import EmptySchemaError, MalformedXmlError, NameCollisionError
from ome_rdf.namespaces import XSD_DATETIME, XSD_NS, XSD_STRING
from ome_rdf.ontology import Category, Origin, build_core_ontology
from ome_rdf.rdf.model import XSD_DATATYPES
from ome_rdf.xsd_translator import (
    CandidateConcept,
    XsdSubsetModel,
    concepts_to_registry_fragment,
    extract_concepts,
    lower_camel,
    parse_xsd_subset,
)

DATA = Path(__file__).parent / "data"
NS = "http://frag.example/o#"

XS = "http://www.w3.org/2001/XMLSchema"


def wrap(body):
    return (
        f'<xs:schema xmlns:xs="{XS}" xmlns:t="http://t.example/">{body}</xs:schema>'
    )


@pytest.fixture(scope="module")
def fixture_text():
    return (DATA / "ome_subset.xsd").read_text()


class TestParseXsd:
    def test_single_type_single_attribute(self):
        # hand-built expectation for a minimal fixture
        model = parse_xsd_subset(wrap(
            '<xs:complexType name="Image">'
            '<xs:attribute name="ID" type="xs:string" use="required"/>'
            "</xs:complexType>"
        ))
        assert len(model.complex_types) == 1
        (ct,) = model.complex_types
        assert ct.name == "Image"
        assert len(ct.attributes) == 1
        assert ct.attributes[0].name == "ID"
        assert ct.attributes[0].required
        assert model.warnings == ()

    def test_empty_schema(self):
        with pytest.raises(EmptySchemaError):
            parse_xsd_subset(f'<xs:schema xmlns:xs="{XS}"/>')

    def test_element_bounds_recorded_as_written(self):
        model = parse_xsd_subset(wrap(
            '<xs:complexType name="Image"><xs:sequence>'
            '<xs:element name="Pixels" type="t:Pixels" minOccurs="0" maxOccurs="1"/>'
            "</xs:sequence></xs:complexType>"
            '<xs:complexType name="Pixels"/>'
        ))
        img = next(ct for ct in model.complex_types if ct.name == "Image")
        (el,) = img.elements
        assert (el.min_occurs, el.max_occurs) == (0, 1)

    def test_unbounded(self):
        model = parse_xsd_subset(wrap(
            '<xs:complexType name="A"><xs:sequence>'
            '<xs:element name="B" type="t:B" minOccurs="0" maxOccurs="unbounded"/>'
            "</xs:sequence></xs:complexType><xs:complexType name='B'/>"
        ))
        a = next(ct for ct in model.complex_types if ct.name == "A")
        assert a.elements[0].max_occurs is None

    def test_malformed_xml(self):
        with pytest.raises(MalformedXmlError):
            parse_xsd_subset("<xs:schema>")

    def test_lone_surrogate_is_malformed_xml(self):
        with pytest.raises(MalformedXmlError, match="^not well-formed XML: "):
            parse_xsd_subset(wrap('<xs:complexType name="A\ud800"/>'))

    @pytest.mark.parametrize("lo, hi, bounds, reasons", [
        ("0", "1", (0, 1), []),
        (" 2 ", "+3", (2, 3), []),
        ("2", "unbounded", (2, None), []),
        ("-1", "1", (1, 1), ["bad minOccurs '-1'"]),
        ("\u0661", "1", (1, 1), ["bad minOccurs '\u0661'"]),
        ("unbounded", "unbounded", (1, None), ["bad minOccurs 'unbounded'"]),
        pytest.param("9" * 5000, "unbounded", (1, None), [f"bad minOccurs '{'9' * 5000}'"],
                     id="more-digits-than-int-reads"),
        ("1", "-2", (1, 1), ["bad maxOccurs '-2'"]),
        ("1", "0", (1, 1), ["maxOccurs 0 is below max(1, minOccurs 1)"]),
        ("0", "0", (0, 1), ["maxOccurs 0 is below max(1, minOccurs 0)"]),
        ("5", "2", (5, 5), ["maxOccurs 2 is below max(1, minOccurs 5)"]),
    ])
    def test_occurrence_bounds(self, lo, hi, bounds, reasons):
        model = parse_xsd_subset(wrap(
            '<xs:complexType name="Image"><xs:sequence>'
            f'<xs:element name="Pixels" type="t:Pixels" minOccurs="{lo}" maxOccurs="{hi}"/>'
            "</xs:sequence></xs:complexType>"
            '<xs:complexType name="Pixels"/>'
        ))
        img = next(ct for ct in model.complex_types if ct.name == "Image")
        (el,) = img.elements
        assert (el.min_occurs, el.max_occurs) == bounds
        path = "/schema/complexType[Image]/sequence/element[Pixels]"
        assert list(model.warnings) == [(path, reason) for reason in reasons]
        # every bound read is one the fragment's property takes as it is
        (prop,) = concepts_to_registry_fragment(extract_concepts(model), NS).properties
        assert (prop.min_count, prop.max_count) == bounds

    @pytest.mark.parametrize("body, path, reason", [
        ('<xs:complexType name="A"><xs:attribute type="xs:string"/></xs:complexType>',
         "/schema/complexType[A]/attribute", "attribute without a name"),
        ('<xs:complexType name="A"><xs:sequence><xs:sequence/></xs:sequence></xs:complexType>',
         "/schema/complexType[A]/sequence/sequence", "sequence inside sequence is not supported"),
        ('<xs:complexType name="A"><xs:sequence><xs:choice/></xs:sequence></xs:complexType>',
         "/schema/complexType[A]/sequence/choice", "choice inside sequence is not supported"),
        ('<xs:complexType name="A"><xs:sequence><xs:element ref="t:B"/></xs:sequence>'
         "</xs:complexType>",
         "/schema/complexType[A]/sequence/element", "element without a name (ref?)"),
        ('<xs:complexType name="A"><xs:sequence><xs:element name="E"/></xs:sequence>'
         "</xs:complexType>",
         "/schema/complexType[A]/sequence/element[E]", "anonymous element type"),
        ('<xs:complexType name="A"><xs:complexContent><xs:extension/></xs:complexContent>'
         "</xs:complexType>",
         "/schema/complexType[A]/complexContent/extension", "unusable extension"),
        ('<xs:complexType name="A"><xs:complexContent><xs:restriction base="t:B"/>'
         "</xs:complexContent></xs:complexType>",
         "/schema/complexType[A]/complexContent/restriction", "restriction is not supported"),
        ('<xs:complexType name="A"><xs:choice/></xs:complexType>',
         "/schema/complexType[A]/choice", "choice is not supported"),
        ('<xs:simpleType name="S"/><xs:complexType name="A"/>',
         "/schema/simpleType", "top-level simpleType is not supported"),
        ('<xs:complexType/><xs:complexType name="A"/>',
         "/schema/complexType", "anonymous top-level complexType"),
        ('<xs:complexType name="A"><xs:complexContent><xs:extension base="t:B"/>'
         "</xs:complexContent></xs:complexType>",
         "/schema/complexType[A]", "extension base 'B' not found"),
    ], ids=["attribute-name", "nested-sequence", "non-element-in-sequence", "element-name",
            "element-type", "extension", "complexContent-child", "complexType-child",
            "top-level-item", "top-level-name", "extension-base"])
    def test_unsupported_construct_warns_and_is_skipped(self, body, path, reason):
        model = parse_xsd_subset(wrap(body))
        assert model.warnings == ((path, reason),)
        (ct,) = model.complex_types
        assert (ct.name, ct.elements, ct.attributes) == ("A", (), ())

    def test_non_schema_root(self):
        with pytest.raises(MalformedXmlError):
            parse_xsd_subset("<foo/>")

    def test_duplicate_type_name(self):
        with pytest.raises(MalformedXmlError):
            parse_xsd_subset(wrap('<xs:complexType name="A"/><xs:complexType name="A"/>'))

    def test_choice_warned_and_skipped(self, fixture_text):
        model = parse_xsd_subset(fixture_text)
        reasons = {path: why for path, why in model.warnings}
        assert any("choice" in path for path in reasons), reasons
        ann = next(ct for ct in model.complex_types if ct.name == "Annotation")
        assert ann.elements == ()  # the choice content was skipped
        assert [a.name for a in ann.attributes] == ["ID"]

    def test_single_level_extension_flattened(self, fixture_text):
        model = parse_xsd_subset(fixture_text)
        long_ann = next(ct for ct in model.complex_types if ct.name == "LongAnnotation")
        assert {a.name for a in long_ann.attributes} == {"ID", "Value", "Units"}

    def test_deep_extension_chain_warned(self, fixture_text):
        model = parse_xsd_subset(fixture_text)
        deep = next(ct for ct in model.complex_types if ct.name == "DeepAnnotation")
        assert {a.name for a in deep.attributes} == {"Depth"}
        assert any("deeper than one" in why for _, why in model.warnings)


class TestExtractConcepts:
    def test_empty_model(self):
        assert extract_concepts(XsdSubsetModel((), ())) == []

    def test_complex_child_becomes_object_property(self):
        model = parse_xsd_subset(wrap(
            '<xs:complexType name="Image"><xs:sequence>'
            '<xs:element name="Pixels" type="t:Pixels"/>'
            "</xs:sequence></xs:complexType><xs:complexType name='Pixels'/>"
        ))
        concepts = extract_concepts(model)
        # by-hand rule application: two classes plus one object property
        kinds = [(c.kind, c.name) for c in concepts]
        assert kinds == [
            ("class", "Image"),
            ("class", "Pixels"),
            ("objectProperty", "hasPixels"),
        ]
        has_pixels = concepts[-1]
        assert has_pixels.domain_name == "Image"
        assert has_pixels.range_name == "Pixels"
        assert (has_pixels.min_count, has_pixels.max_count) == (1, 1)

    def test_attribute_becomes_datatype_property(self):
        model = parse_xsd_subset(wrap(
            '<xs:complexType name="Image">'
            '<xs:attribute name="AcquisitionDate" type="xs:dateTime"/>'
            "</xs:complexType>"
        ))
        concepts = extract_concepts(model)
        dt = [c for c in concepts if c.kind == "datatypeProperty"]
        assert len(dt) == 1
        assert dt[0].name == "acquisitionDate"
        assert dt[0].domain_name == "Image"

    def test_simple_typed_element_becomes_datatype_property(self):
        model = parse_xsd_subset(wrap(
            '<xs:complexType name="Image"><xs:sequence>'
            '<xs:element name="AcquisitionDate" type="xs:dateTime" minOccurs="0"/>'
            "</xs:sequence></xs:complexType>"
        ))
        (dt,) = [c for c in extract_concepts(model) if c.kind == "datatypeProperty"]
        assert dt.name == "acquisitionDate"
        assert (dt.min_count, dt.max_count) == (0, 1)

    def test_order_invariance_under_type_shuffling(self, fixture_text):
        reference = extract_concepts(parse_xsd_subset(fixture_text))
        root = ET.fromstring(fixture_text)
        children = list(root)
        rng = random.Random(99)
        for _ in range(4):
            rng.shuffle(children)
            for ch in list(root):
                root.remove(ch)
            for ch in children:
                root.append(ch)
            shuffled_text = ET.tostring(root, encoding="unicode")
            assert extract_concepts(parse_xsd_subset(shuffled_text)) == reference

    def test_source_paths_resolve(self, fixture_text):
        model = parse_xsd_subset(fixture_text)
        types = {ct.name: ct for ct in model.complex_types}
        for c in extract_concepts(model):
            parts = c.source_path.strip("/").split("/")
            assert parts[0] == "schema"
            tname = parts[1][len("complexType["):-1]
            ct = types[tname]
            if len(parts) == 2:
                continue
            leaf = parts[-1]
            name = leaf[leaf.index("[") + 1:-1]
            if leaf.startswith("element"):
                assert any(e.name == name for e in ct.elements), c
            else:
                assert any(a.name == name for a in ct.attributes), c

    def test_lower_camel(self):
        assert lower_camel("AcquisitionDate") == "acquisitionDate"
        assert lower_camel("ID") == "id"
        assert lower_camel("SizeX") == "sizeX"


class TestFragment:
    def test_empty_candidates(self):
        frag = concepts_to_registry_fragment([], NS)
        assert frag.classes == () and frag.properties == ()

    def test_image_pixels_fragment(self):
        concepts = [
            CandidateConcept("class", "Image", "/schema/complexType[Image]"),
            CandidateConcept("class", "Pixels", "/schema/complexType[Pixels]"),
            CandidateConcept(
                "objectProperty", "hasPixels",
                "/schema/complexType[Image]/sequence/element[Pixels]",
                domain_name="Image", range_name="Pixels", min_count=1, max_count=1),
        ]
        frag = concepts_to_registry_fragment(concepts, NS)
        assert len(frag.classes) == 2
        (prop,) = frag.properties
        assert frag.lookup_class(prop.domain).label == "Image"
        assert frag.lookup_class(prop.range).label == "Pixels"

    def test_duplicate_class_collapses(self):
        concepts = [
            CandidateConcept("class", "Image", "/schema/complexType[Image]"),
            CandidateConcept("class", "Image", "/schema/complexType[Image2]"),
        ]
        frag = concepts_to_registry_fragment(concepts, NS)
        assert len(frag.classes) == 1

    @pytest.mark.parametrize("xsd_type, range_iri", [
        ("xs:dateTime", XSD_DATETIME),
        ("xs:int", XSD_NS + "int"),
        ("xs:hexBinary", XSD_NS + "hexBinary"),
        # a type that is not an XSD primitive reads as a string
        ("t:Custom", XSD_STRING),
    ])
    def test_attribute_range(self, xsd_type, range_iri):
        model = parse_xsd_subset(wrap(
            f'<xs:complexType name="A"><xs:attribute name="V" type="{xsd_type}"/>'
            "</xs:complexType>"))
        (prop,) = concepts_to_registry_fragment(extract_concepts(model), NS).properties
        assert (prop.label, prop.range) == ("v", range_iri)

    def test_pass_through_types_are_the_model_datatypes(self):
        # every XSD 1.1 built-in type: those the RDF model knows pass through
        # as ranges, and each of the others reads as a string
        builtins = (
            "anyAtomicType anySimpleType anyURI base64Binary boolean byte date dateTime "
            "dateTimeStamp dayTimeDuration decimal double duration ENTITIES ENTITY float "
            "gDay gMonth gMonthDay gYear gYearMonth hexBinary ID IDREF IDREFS int integer "
            "language long Name NCName negativeInteger NMTOKEN NMTOKENS nonNegativeInteger "
            "nonPositiveInteger normalizedString NOTATION positiveInteger QName short string "
            "time token unsignedByte unsignedInt unsignedLong unsignedShort "
            "yearMonthDuration").split()
        model = parse_xsd_subset(wrap(
            '<xs:complexType name="A">'
            + "".join(f'<xs:attribute name="V{i}" type="xs:{t}"/>' for i, t in enumerate(builtins))
            + "</xs:complexType>"))
        ranges = {p.label: p.range for p in
                  concepts_to_registry_fragment(extract_concepts(model), NS).properties}
        assert ranges == {f"v{i}": XSD_NS + t if XSD_NS + t in XSD_DATATYPES else XSD_STRING
                          for i, t in enumerate(builtins)}
        assert set(ranges.values()) == XSD_DATATYPES

    def test_name_collision(self):
        concepts = [
            CandidateConcept("class", "Thing", "/schema/complexType[Thing]"),
            CandidateConcept("datatypeProperty", "Thing", "/schema/complexType[A]/attribute[Thing]",
                             domain_name="Thing"),
        ]
        with pytest.raises(NameCollisionError):
            concepts_to_registry_fragment(concepts, NS)

    def test_composition_class_per_complex_type(self, fixture_text):
        model = parse_xsd_subset(fixture_text)
        frag = concepts_to_registry_fragment(extract_concepts(model), NS)
        assert len(frag.classes) == len(model.complex_types)
        assert {c.label for c in frag.classes} == model.type_names()

    def test_categories_are_the_core_categories(self, fixture_text):
        core = {c.label: c for c in build_core_ontology().classes}
        frag = concepts_to_registry_fragment(
            extract_concepts(parse_xsd_subset(fixture_text)), NS)
        translated = [c for c in frag.classes
                      if c.label in core and core[c.label].origin is Origin.TRANSLATED]
        others = [c for c in frag.classes if c not in translated]
        assert len(translated) == 11 and others
        for c in translated:
            assert c.category is core[c.label].category
        for c in others:
            assert c.category is Category.IMAGE
        by_label = {c.label: c.category for c in frag.classes}
        assert (by_label["Detector"], by_label["ExperimenterGroup"], by_label["Plate"],
                by_label["Pixels"]) == (Category.INSTRUMENT, Category.EXPERIMENTER,
                                        Category.SCREENING, Category.IMAGE)
