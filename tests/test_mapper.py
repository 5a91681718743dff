import random
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ome_rdf.errors import (
    EmptyLocalIdError,
    InvalidIriError,
    MalformedCurieError,
    MappingFailedError,
    OrphanAnnotationError,
    UnknownClassInRegistryError,
    UnresolvableStrainError,
)
from ome_rdf.links import LinkEntry, LinkRegistry
import ome_rdf.mapper
from ome_rdf.mapper import MapResult, MintingPolicy, map_document
from ome_rdf.namespaces import RDF_TYPE
from ome_rdf.ome_xml import (
    SIDECAR_COLUMNS,
    EmAnnotation,
    InstrumentKind,
    OmeDocument,
    OmeExperimenter,
    OmeImage,
    OmeInstrument,
    parse_ome_document,
    parse_sidecar,
)
from ome_rdf.ontology import OntologyRegistry, build_core_ontology
from ome_rdf.rdf import Graph, Iri, parse, serialize
from ome_rdf.xsd_translator import (
    concepts_to_registry_fragment,
    extract_concepts,
    parse_xsd_subset,
)

from oracle import expected_iri, is_blank, reference_serialize_turtle

DATA = Path(__file__).parent / "data"
BASE = "http://ex.org/i/"


@pytest.fixture(scope="module")
def registry():
    return build_core_ontology()


@pytest.fixture(scope="module")
def links():
    return LinkRegistry.default()


@pytest.fixture(scope="module")
def policy():
    return MintingPolicy(Iri(BASE))


@pytest.fixture()
def minimal_image():
    return parse_ome_document((DATA / "minimal.ome.xml").read_text()).images[0]


@pytest.fixture()
def golden_pair():
    doc = parse_ome_document((DATA / "golden.ome.xml").read_text())
    (ann,) = parse_sidecar((DATA / "golden.ann.tsv").read_text())
    return doc.images[0], ann


def types_of(graph, subject):
    return {o for s, p, o in graph if s == subject and p == RDF_TYPE}


def golden_with(field, raw):
    """The golden document and sidecar with one OME attribute or sidecar
    cell replaced by ``raw``."""
    xml = (DATA / "golden.ome.xml").read_text()
    header, row = (DATA / "golden.ann.tsv").read_text().splitlines()
    if field in SIDECAR_COLUMNS:
        cells = row.split("\t")
        cells[SIDECAR_COLUMNS.index(field)] = raw
        row = "\t".join(cells)
    else:
        xml, n = re.subn(f'{field}="[^"]*"', f'{field}="{raw}"', xml)
        assert n == 1
    return parse_ome_document(xml), parse_sidecar(f"{header}\n{row}\n")


def generated_document(seed, n_images=12):
    """A small seeded OME-XML document and sidecar that switch every
    optional field on and off."""
    rng = random.Random(seed)
    maybe = lambda text: text if rng.random() < 0.5 else ""
    parts = ['<OME xmlns="http://www.openmicroscopy.org/Schemas/OME/2015-01">']
    for i in range(2):
        parts.append(f'<Experimenter ID="E{i}" Name="person {i}"'
                     + maybe(f' Email="p{i}@lab.example"') + "/>")
        parts.append(f'<Instrument ID="I{i}" Kind="{("Optical", "Electron")[i]}"'
                     + maybe(f' Model="M-{i}"') + "/>")
    rows = ["\t".join(SIDECAR_COLUMNS)]
    for i in range(n_images):
        parts.append(
            f'<Image ID="IMG{i}" Name="image {i}">'
            + maybe("<AcquisitionDate>2020-02-0{0}T10:00:00Z</AcquisitionDate>".format(i % 9 + 1))
            + maybe(f'<ExperimenterRef ID="E{rng.randrange(2)}"/>')
            + maybe(f'<InstrumentRef ID="I{rng.randrange(2)}"/>')
            + f'<Pixels SizeX="{rng.randrange(1, 4096)}" SizeY="64" SizeZ="1" SizeC="3"'
            + f' SizeT="{rng.randrange(1, 9)}"'
            + maybe(f' PhysicalSizeX="0.{rng.randrange(1, 999)}"')
            + maybe(' PhysicalSizeY="2.5"') + "/></Image>")
        if rng.random() < 0.8:
            rows.append("\t".join([
                f"IMG{i}", f"S{rng.randrange(4)}", maybe(f"C{rng.randrange(3)}"),
                maybe(f"rikenbrc_mouse:RBRC{rng.randrange(100):05d}"), maybe("osmium"),
                maybe(f"{rng.randrange(1, 300)}.5"), maybe("field emission"),
                maybe("1E+1"), maybe("liver cells;nucleus"),
            ]))
    parts.append("</OME>")
    return parse_ome_document("".join(parts)), parse_sidecar("\n".join(rows) + "\n")


def bare_document(n_images):
    """A document of images ``IMG0`` ... with pixels and nothing else."""
    return parse_ome_document(
        '<OME xmlns="http://www.openmicroscopy.org/Schemas/OME/2015-01">' + "".join(
            f'<Image ID="IMG{i}" Name="n">'
            '<Pixels SizeX="1" SizeY="1" SizeZ="1" SizeC="1" SizeT="1"/></Image>'
            for i in range(n_images)) + "</OME>")


def paired(doc, anns):
    """(image, its row or None) for each image of ``doc``, in document order."""
    by_id = {ann.image_id: ann for ann in anns}
    return [(img, by_id.get(img.id)) for img in doc.images]


def map_images(pairs, registry, policy, links, skip_errors=False):
    """Map (image, row or None) pairs as one document: its images in order,
    and its rows those that are not None."""
    doc = OmeDocument(tuple(img for img, _ in pairs), (), ())
    anns = [ann for _, ann in pairs if ann is not None]
    return map_document(doc, anns, registry, policy, links, skip_errors)


def map_one(img, ann, registry, policy, links):
    """The record of the one-image document of ``img`` and ``ann``."""
    (record,) = map_images([(img, ann)], registry, policy, links).records
    return record


def document(source):
    """The golden document and sidecar, or ``generated-N``'s."""
    if source == "golden":
        return (parse_ome_document((DATA / "golden.ome.xml").read_text()),
                parse_sidecar((DATA / "golden.ann.tsv").read_text()))
    return generated_document(int(source.rsplit("-", 1)[1]))


class TestMintingPolicy:
    def test_policy_requires_separator_suffix(self):
        with pytest.raises(ValueError):
            MintingPolicy(Iri("http://ex.org/noslash"))

    @pytest.mark.parametrize("base", [None, 5, b"http://a/", "http://a/x", "no scheme/"])
    def test_bad_policy_base_is_invalid_iri(self, base):
        with pytest.raises(InvalidIriError):
            MintingPolicy(base)

    @pytest.mark.parametrize("base", ["http://a/", "http://a#", Iri("http://a/")])
    def test_policy_base_is_an_iri(self, base):
        policy = MintingPolicy(base)
        assert type(policy.instance_base) is Iri and policy.instance_base == base


class TestOneImage:
    def test_minimal_image_emits_exactly_seven_triples(
            self, minimal_image, registry, policy, links):
        # by-hand enumeration: 1 type + 5 sizes + 1 name
        record = map_one(minimal_image, None, registry, policy, links)
        assert len(record.graph) == 7
        preds = sorted(p.rsplit("#", 1)[-1] for _, p, _ in record.graph)
        assert preds == ["name", "sizeC", "sizeT", "sizeX", "sizeY", "sizeZ", "type"]

    def test_golden_strain_link(self, golden_pair, registry, policy, links):
        img, ann = golden_pair
        record = map_one(img, ann, registry, policy, links)
        sample_iri = Iri(BASE + "biosample/S1")
        strain_iri = Iri("http://metadb.riken.jp/metadb/db/rikenbrc_mouse/RBRC001")
        derived = registry.property_by_label("derivedFrom").iri
        assert [t for t in record.graph if t[1] == derived] == [
            (sample_iri, derived, strain_iri)]

    def test_golden_two_edge_path(self, golden_pair, registry, policy, links):
        img, ann = golden_pair
        g = map_one(img, ann, registry, policy, links).graph
        depicts = registry.property_by_label("depicts").iri
        derived = registry.property_by_label("derivedFrom").iri
        image_iri = Iri(BASE + "image/IMG001")
        samples = {o for s, p, o in g if s == image_iri and p == depicts}
        assert samples
        hops = {o for s, p, o in g if s in samples and p == derived}
        assert any(o.startswith(
            "http://metadb.riken.jp/metadb/db/rikenbrc_mouse/") for o in hops)

    def test_instrument_typed_electron_microscope(
            self, golden_pair, registry, policy, links):
        img, ann = golden_pair
        g = map_one(img, ann, registry, policy, links).graph
        instr_iri = Iri(BASE + "instrument/I1")
        assert types_of(g, instr_iri) == {registry.class_by_label("ElectronMicroscope").iri}

    def test_every_minted_subject_typed_exactly_once(
            self, golden_pair, registry, policy, links):
        img, ann = golden_pair
        g = map_one(img, ann, registry, policy, links).graph
        for subject in {s for s, _, _ in g}:
            if subject.startswith(BASE):
                assert len(types_of(g, subject)) == 1, subject

    def test_deterministic_bytes(self, golden_pair, registry, policy, links):
        img, ann = golden_pair
        a = serialize(map_one(img, ann, registry, policy, links).graph, "ntriples")
        b = serialize(map_one(img, ann, registry, policy, links).graph, "ntriples")
        assert a == b

    def test_unresolvable_strain(self, minimal_image, registry, policy, links):
        ann = EmAnnotation(image_id=minimal_image.id, sample_id="S",
                           strain_id="nosuch:X1")
        with pytest.raises(MappingFailedError) as err:
            map_one(minimal_image, ann, registry, policy, links)
        assert (err.value.image_id, err.value.code) == (minimal_image.id, "UnresolvableStrain")
        assert isinstance(err.value.__cause__, UnresolvableStrainError)

    def test_voltage_literal_keeps_lexical_form(
            self, golden_pair, registry, policy, links):
        img, ann = golden_pair
        g = map_one(img, ann, registry, policy, links).graph
        volts = [o[0] for _, p, o in g
                 if p == registry.property_by_label("accelerationVoltage").iri]
        assert volts == ["5.0"]

    @pytest.mark.parametrize("field, label", [
        ("PhysicalSizeX", "physicalSizeX"),
        ("PhysicalSizeY", "physicalSizeY"),
        ("voltage_kv", "accelerationVoltage"),
        ("wavelength_pm", "electronWavelength"),
    ])
    @pytest.mark.parametrize("raw, lexical", [
        ("1E+2", "100"),
        ("1E-7", "0.0000001"),
        ("5.0", "5.0"),
        ("1E-100", "0." + "0" * 99 + "1"),
    ])
    def test_decimal_lexical_form_is_canonical(
            self, field, label, raw, lexical, registry, policy, links):
        doc, (ann,) = golden_with(field, raw)
        g = map_one(doc.images[0], ann, registry, policy, links).graph
        prop = registry.property_by_label(label)
        (obj,) = [o for _, p, o in g if p == prop.iri]
        assert obj == (lexical, prop.range, None)

    # space, tab, CR and LF, which xsd:dateTime's whitespace collapse removes;
    # CR is a character reference, which the XML parser does not turn into LF
    @pytest.mark.parametrize("space", [" ", "\t", "&#13;", "\n", " \t&#13;\n"])
    def test_date_wrapped_in_xml_whitespace_maps(self, space, registry, policy, links):
        stamp = "2015-01-20T10:30:00Z"
        xml = (DATA / "golden.ome.xml").read_text().replace(stamp, space + stamp + space)
        (img,) = parse_ome_document(xml).images
        g = map_one(img, None, registry, policy, links).graph
        prop = registry.property_by_label("acquisitionDate")
        assert [o for _, p, o in g if p == prop.iri] == [(stamp, prop.range, None)]

    @pytest.mark.parametrize("char", ["\x0b", "\x1c", "\x85", "\u2028", "\u2029"])
    @pytest.mark.parametrize("fmt", ["ntriples", "turtle"])
    def test_line_separator_in_cell_survives_round_trip(
            self, char, fmt, registry, policy, links):
        doc, (ann,) = golden_with("stain", f"st{char}ain")
        g = map_one(doc.images[0], ann, registry, policy, links).graph
        prop = registry.property_by_label("stainingMethod")
        assert [o[0] for _, p, o in g if p == prop.iri] == [f"st{char}ain"]
        assert parse(serialize(g, fmt), fmt) == g


class TestManyImages:
    def _image(self, image_id):
        text = (DATA / "minimal.ome.xml").read_text().replace("IMG-MIN", image_id)
        return parse_ome_document(text).images[0]

    def test_empty_input(self, registry, policy, links):
        result = map_images([], registry, policy, links)
        assert len(result.graph) == 0 and result.records == ()

    def test_shared_sample_one_type_triple(self, registry, policy, links):
        pairs = [
            (self._image("A"), EmAnnotation(image_id="A", sample_id="S1")),
            (self._image("B"), EmAnnotation(image_id="B", sample_id="S1")),
        ]
        result = map_images(pairs, registry, policy, links)
        sample_iri = Iri(BASE + "biosample/S1")
        type_triples = [t for t in result.graph if t[:2] == (sample_iri, RDF_TYPE)]
        assert len(type_triples) == 1

    def test_disjoint_records_sizes_add(self, registry, policy, links):
        pairs = [(self._image(f"D{i}"), None) for i in range(3)]
        result = map_images(pairs, registry, policy, links)
        assert len(result.graph) == sum(len(r.graph) for r in result.records)

    def test_equals_union_of_record_graphs(self, registry, policy, links):
        pairs = [
            (self._image("A"), EmAnnotation(image_id="A", sample_id="S1")),
            (self._image("B"), EmAnnotation(image_id="B", sample_id="S1",
                                            staining_method="osmium")),
            (self._image("C"), None),
        ]
        result = map_images(pairs, registry, policy, links)
        union = set()
        for record in result.records:
            union |= record.graph.triples
        assert Graph(union) == result.graph

    def test_skip_errors_collects(self, registry, policy, links):
        pairs = [
            (self._image("A"), EmAnnotation(image_id="A", sample_id="S",
                                            strain_id="nosuch:X")),
            (self._image("B"), None),
        ]
        with pytest.raises(MappingFailedError) as err:
            map_images(pairs, registry, policy, links)
        assert err.value.image_id == "A"
        assert err.value.code == "UnresolvableStrain"

        result = map_images(pairs, registry, policy, links, skip_errors=True)
        assert len(result.records) == 1
        assert result.skipped[0].image_id == "A"
        assert result.skipped[0].code == "UnresolvableStrain"

    def test_strain_that_gives_no_valid_iri_is_unresolvable(self, registry, policy):
        # the id matches its pattern, but a quote may not stand in an IRI
        links = LinkRegistry([LinkEntry("lab", Iri("http://lab.example/strain"), ".+")])
        pairs = [(self._image("A"), EmAnnotation(image_id="A", sample_id="S",
                                                 strain_id='lab:a"b'))]
        result = map_images(pairs, registry, policy, links, skip_errors=True)
        assert [(s.image_id, s.code) for s in result.skipped] == [("A", "UnresolvableStrain")]
        assert "lab:a" in result.skipped[0].message
        with pytest.raises(MappingFailedError) as err:
            map_images(pairs, registry, policy, links)
        assert isinstance(err.value.__cause__.__cause__, MalformedCurieError)

    def test_lone_surrogate_local_id_skipped_as_invalid_iri(self, registry, policy, links):
        pairs = [(self._image("A"), EmAnnotation(image_id="A", sample_id="S\ud800"))]
        result = map_images(pairs, registry, policy, links, skip_errors=True)
        assert result.records == ()
        assert [(s.image_id, s.code) for s in result.skipped] == [("A", "InvalidIri")]


def test_map_document_is_the_one_entry_point():
    entry_points = {name for name in dir(ome_rdf.mapper)
                    if name.startswith("map_") and callable(getattr(ome_rdf.mapper, name))}
    assert entry_points == {"map_document"}


class TestMapDocument:
    def test_golden_document(self, registry, policy, links):
        doc = parse_ome_document((DATA / "golden.ome.xml").read_text())
        anns = parse_sidecar((DATA / "golden.ann.tsv").read_text())
        result = map_document(doc, anns, registry, policy, links)
        assert isinstance(result, MapResult)
        assert len(result.records) == 1
        # instrument + experimenter nodes live in the per-record graph
        assert types_of(result.graph, Iri(BASE + "experimenter/E1"))

    @pytest.mark.parametrize("fmt, name", [("ntriples", "golden.nt"), ("turtle", "golden.ttl")])
    def test_golden_output_bytes(self, fmt, name, registry, policy, links):
        doc = parse_ome_document((DATA / "golden.ome.xml").read_text())
        anns = parse_sidecar((DATA / "golden.ann.tsv").read_text())
        g = map_document(doc, anns, registry, policy, links).graph
        assert serialize(g, fmt).encode("utf-8") == (DATA / name).read_bytes()

    @pytest.mark.parametrize("reorder", ["reversed", "shuffled"])
    def test_golden_output_bytes_do_not_depend_on_graph_order(
            self, reorder, registry, policy, links):
        mapped = map_document(*document("golden"), registry, policy, links).graph
        golden = {fmt: (DATA / name).read_bytes().decode("utf-8")
                  for fmt, name in [("ntriples", "golden.nt"), ("turtle", "golden.ttl")]}
        sources = {"mapped": mapped, **{fmt: parse(text, fmt) for fmt, text in golden.items()}}
        for source, g in sources.items():
            triples = list(g)
            if reorder == "reversed":
                triples.reverse()
            else:
                random.Random(13).shuffle(triples)
            h = Graph(triples, mapped.prefixes)
            assert list(h) == triples and h == mapped, source
            for fmt, text in golden.items():
                assert serialize(h, fmt) == text, (source, fmt)

    @pytest.mark.parametrize("source", ["golden", "generated-1", "generated-2"])
    def test_graph_iterates_in_record_order(self, source, registry, policy, links):
        # the writers walk the graph in the order the emitter built it
        result = map_document(*document(source), registry, policy, links)
        assert len(result.records) > 0
        assert list(result.graph) == [t for r in result.records for t in r.triples]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_turtle_same_as_reference_writer(self, seed, registry, policy, links):
        doc, anns = generated_document(seed)
        g = map_document(doc, anns, registry, policy, links).graph
        assert serialize(g, "turtle") == reference_serialize_turtle(g)

    def test_golden_document_has_no_blank_nodes(self, registry, policy, links):
        doc = parse_ome_document((DATA / "golden.ome.xml").read_text())
        anns = parse_sidecar((DATA / "golden.ann.tsv").read_text())
        g = map_document(doc, anns, registry, policy, links).graph
        assert len(g) > 0
        assert not any(is_blank(term) for t in g for term in t)

    @pytest.mark.parametrize("source", ["golden", "generated-1", "generated-2"])
    def test_every_literal_datatype_is_the_property_range(
            self, source, registry, policy, links):
        g = map_document(*document(source), registry, policy, links).graph
        literal_triples = [t for t in g if isinstance(t[2], tuple)]
        assert literal_triples
        for t in literal_triples:
            prop = registry.lookup_property(t[1])
            assert prop is not None, t[1]
            assert t[2][1] == prop.range, t

    def test_orphans_skipped_in_lenient_mode(self, registry, policy, links):
        doc = parse_ome_document((DATA / "minimal.ome.xml").read_text())
        anns = [EmAnnotation(image_id="GHOST", sample_id="S")]
        result = map_document(doc, anns, registry, policy, links, skip_errors=True)
        assert result.skipped[0].code == "OrphanAnnotation"
        assert len(result.records) == 1

    def test_orphan_raises_without_skip_errors(self, registry, policy, links):
        anns = [EmAnnotation("IMG0", "S"), EmAnnotation("GHOST", "S")]
        with pytest.raises(OrphanAnnotationError) as err:
            map_document(bare_document(1), anns, registry, policy, links)
        assert str(err.value) == str(OrphanAnnotationError("GHOST"))

    def test_orphan_raises_before_a_failing_record_maps(self, registry, policy, links):
        anns = [EmAnnotation("IMG0", "S", strain_id="nosuch:X1"), EmAnnotation("GHOST", "S")]
        with pytest.raises(OrphanAnnotationError):
            map_document(bare_document(1), anns, registry, policy, links)
        result = map_document(bare_document(1), anns, registry, policy, links, skip_errors=True)
        assert [(s.image_id, s.code) for s in result.skipped] == [
            ("GHOST", "OrphanAnnotation"), ("IMG0", "UnresolvableStrain")]

    def test_records_follow_the_images_and_pair_rows_by_id(self, registry, policy, links):
        # rows out of document order; images 1 and 3 have none
        anns = [EmAnnotation(f"IMG{i}", f"S{i}") for i in (4, 0, 2)]
        result = map_document(bare_document(5), anns, registry, policy, links)
        assert [r.image_iri for r in result.records] == [
            BASE + f"image/IMG{i}" for i in range(5)]
        depicts = registry.property_by_label("depicts").iri
        assert {(s, o) for s, p, o in result.graph if p == depicts} == {
            (BASE + f"image/IMG{i}", BASE + f"biosample/S{i}") for i in (0, 2, 4)}
        assert result.skipped == ()

    def test_empty_document(self, registry, policy, links):
        result = map_document(bare_document(0), [], registry, policy, links)
        assert (result.records, result.skipped, len(result.graph)) == ((), (), 0)

    def test_equal_values_keep_their_literal_forms(self, registry, policy, links):
        # one value in four forms, on four images and four rows of one call
        raws = ["5.0", "5.00", "5", " 5.0"]
        doc = parse_ome_document(
            '<OME xmlns="http://www.openmicroscopy.org/Schemas/OME/2015-01">' + "".join(
                f'<Image ID="IMG{i}" Name="n"><Pixels SizeX="1" SizeY="1" SizeZ="1" '
                f'SizeC="1" SizeT="1" PhysicalSizeX="{raw}"/></Image>'
                for i, raw in enumerate(raws)) + "</OME>")
        anns = parse_sidecar("\t".join(SIDECAR_COLUMNS) + "\n" + "".join(
            f"IMG{i}\tS\t\t\t\t{raw}\t\t\t\n" for i, raw in enumerate(raws)))
        g = map_document(doc, anns, registry, policy, links).graph
        for label, node in [("physicalSizeX", "image"), ("accelerationVoltage",
                                                         "imagingcondition")]:
            prop = registry.property_by_label(label)
            lexical = {s: o[0] for s, p, o in g if p == prop.iri}
            assert [lexical[f"{BASE}{node}/IMG{i}"] for i in range(4)] == [
                "5.0", "5.00", "5", "5.0"], label


def golden_image(image_id):
    """The golden image, which names experimenter E1 and instrument I1, under another id."""
    text = (DATA / "golden.ome.xml").read_text().replace("IMG001", image_id)
    return parse_ome_document(text).images[0]


class TestUnionOfOneImageDocuments:
    """A document's graph emits each shared node once, yet it is the union of
    the graphs of its one-image documents."""

    def check(self, pairs, registry, policy, links, disjoint=True):
        union, failed = set(), []
        for pair in pairs:
            one = map_images([pair], registry, policy, links, skip_errors=True)
            union |= one.graph.triples
            failed += [s.image_id for s in one.skipped]
        result = map_images(pairs, registry, policy, links, skip_errors=True)
        assert result.graph == Graph(union)
        assert [s.image_id for s in result.skipped] == failed
        if disjoint:  # no record re-emits a triple that an earlier one added
            assert sum(len(r.graph) for r in result.records) == len(result.graph)
        return result

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_generated_documents(self, seed, registry, policy, links):
        doc, anns = generated_document(seed, n_images=30)
        # every fourth row names a strain that does not resolve
        anns = [a._replace(strain_id="nosuch:X1") if i % 4 == 0 else a
                for i, a in enumerate(anns)]
        self.check(paired(doc, anns), registry, policy, links)

    def test_one_sample_with_different_containers_and_strains(
            self, registry, policy, links):
        strain = "rikenbrc_mouse:RBRC0000{}".format
        pairs = [
            (golden_image("A"), EmAnnotation("A", "S1", "C1", strain(1))),
            (golden_image("B"), EmAnnotation("B", "S1", "C2", strain(2))),
            (golden_image("C"), EmAnnotation("C", "S1", "C1", strain(1))),
            (golden_image("D"), EmAnnotation("D", "S2", "C1", strain(2))),
        ]
        result = self.check(pairs, registry, policy, links)
        contained = registry.property_by_label("containedIn").iri
        derived = registry.property_by_label("derivedFrom").iri
        s1 = Iri(BASE + "biosample/S1")
        assert {o.rsplit("/", 1)[1] for s, p, o in result.graph
                if s == s1 and p in (contained, derived)} == {
            "C1", "C2", "RBRC00001", "RBRC00002"}
        assert [len(r.graph) for r in result.records][2] < len(
            map_one(*pairs[2], registry, policy, links).graph)

    def test_one_experimenter_and_instrument_id_with_different_values(
            self, registry, policy, links):
        # callers that build documents themselves may give one id two sets of
        # values; both are emitted, and the triples they share are emitted twice
        a = golden_image("A")
        b = golden_image("B")._replace(
            experimenter=a.experimenter._replace(name="B. Other", email=None),
            instrument=a.instrument._replace(kind=InstrumentKind.OPTICAL))
        result = self.check([(a, None), (b, None), (golden_image("C"), None)],
                            registry, policy, links, disjoint=False)
        full_name = registry.property_by_label("fullName").iri
        assert {o[0] for _, p, o in result.graph if p == full_name} == {
            "A. Imager", "B. Other"}
        assert types_of(result.graph, Iri(BASE + "instrument/I1")) == {
            registry.class_by_label(label).iri for label in ("ElectronMicroscope", "Instrument")}

    @pytest.mark.parametrize("edge", ["containedIn", "derivedFrom"])
    def test_experimenter_equal_to_an_edge_key(self, edge, registry, policy, links):
        # a reader record is a tuple, so this experimenter equals the tuple
        # (edge, "S1", target), which must not stand for S1's edge to target
        strain = "rikenbrc_mouse:RBRC00001"
        target = "C1" if edge == "containedIn" else links.resolve(strain)
        pixels = (1, 1, 1, 1, 1)  # sizeX to sizeT
        pairs = [
            (OmeImage("A", "n", *pixels, experimenter=OmeExperimenter(edge, "S1", target)), None),
            (OmeImage("B", "n", *pixels), EmAnnotation("B", "S1", "C1", strain)),
        ]
        result = self.check(pairs, registry, policy, links)
        s1 = BASE + "biosample/S1"
        assert [o for s, p, o in result.graph
                if s == s1 and p == registry.property_by_label(edge).iri] == [
            BASE + "samplecontainer/C1" if edge == "containedIn" else target]

    def test_failed_record_does_not_hide_what_it_named_first(
            self, registry, policy, links):
        pairs = [
            (golden_image("A"), EmAnnotation("A", "S9", "C9", "nosuch:X1",
                                             staining_method="osmium")),
            (golden_image("B"), EmAnnotation("B", "S9", "C9")),
        ]
        result = self.check(pairs, registry, policy, links)
        assert [(s.image_id, s.code) for s in result.skipped] == [("A", "UnresolvableStrain")]
        for iri in ("biosample/S9", "samplecontainer/C9", "experimenter/E1",
                    "instrument/I1"):
            assert types_of(result.graph, Iri(BASE + iri)), iri
        assert not any(s.endswith("/A") for s, _, _ in result.graph)

    def test_shared_entities_emitted_once(self, registry, policy, links):
        doc, anns = generated_document(3, n_images=40)
        pairs = paired(doc, anns)
        result = self.check(pairs, registry, policy, links)
        emitted_one_by_one = sum(len(map_one(img, ann, registry, policy, links).graph)
                                 for img, ann in pairs)
        assert emitted_one_by_one > len(result.graph)


# ids with reserved, non-ASCII and "-p"-like characters, and any text that
# UTF-8 can encode
LOCAL_IDS = st.one_of(
    st.sampled_from(["a b", "a/b", "a#b", "a?b=c", "%41", "é", "\U0001f52c", "x-p0", "-p1",
                     "~._-", "<>", '"', "\\", "\x00", "\u2028"]),
    st.text(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=12),
)
NODES = ("image", "experimenter", "instrument", "sample", "container")


def full_pair(ids, kind=InstrumentKind.ELECTRON):
    """An image and its row that name every node the mapper mints, each
    under its id in ``ids`` (keyed by ``NODES``), with two observations."""
    image_id = ids["image"]
    img = OmeImage(image_id, "n", 1, 1, 1, 1, 1,
                   instrument=OmeInstrument(ids["instrument"], kind, "M"),
                   experimenter=OmeExperimenter(ids["experimenter"], "A. Imager"))
    ann = EmAnnotation(image_id, ids["sample"], ids["container"], staining_method="osmium",
                       electron_gun_type="field emission",
                       phenotype_observations=("liver cells", "nucleus"))
    return img, ann


class TestMinting:
    """The emitter mints each node's IRI from one encoded id per image, and
    that IRI is the one :func:`oracle.expected_iri` gives."""

    def test_concatenation_rule(self, registry, policy, links):
        record = map_one(*full_pair(dict.fromkeys(NODES, "IMG001")), registry, policy, links)
        assert record.image_iri == BASE + "image/IMG001"

    @pytest.mark.parametrize("local_id, encoded", [
        ("a b", "a%20b"), ("a/b", "a%2Fb"), ("a#b", "a%23b"), ("\xe9", "%C3%A9"),
        ("x-p0", "x-p0"), ("~._-", "~._-"),
    ])
    def test_percent_encoding(self, local_id, encoded, registry, policy, links):
        ids = dict.fromkeys(NODES, "X") | {"sample": local_id}
        graph = map_one(*full_pair(ids), registry, policy, links).graph
        sample_class = registry.class_by_label("BioSample").iri
        assert {s for s, p, o in graph if p == RDF_TYPE and o == sample_class} == {
            BASE + "biosample/" + encoded}

    @given(ids=st.lists(LOCAL_IDS, min_size=len(NODES), max_size=len(NODES)),
           kind=st.sampled_from(list(InstrumentKind)))
    @settings(max_examples=150, deadline=None)
    def test_emitted_iris_are_expected_iri(self, ids, kind, registry, policy, links):
        ids = dict(zip(NODES, ids))
        record = map_one(*full_pair(ids, kind), registry, policy, links)
        typed = {}
        for s, p, o in record.triples:
            if p == RDF_TYPE:
                typed.setdefault(registry.lookup_class(Iri(o)).label, set()).add(s)

        def mint(label, local_id):
            return expected_iri(BASE, label, local_id)

        electron = kind is InstrumentKind.ELECTRON
        assert typed == {
            "Image": {mint("Image", ids["image"])},
            "Experimenter": {mint("Experimenter", ids["experimenter"])},
            "ElectronMicroscope" if electron else "Instrument": {
                mint("Instrument", ids["instrument"])},
            "BioSample": {mint("BioSample", ids["sample"])},
            "SampleContainer": {mint("SampleContainer", ids["container"])},
            "SamplePreparation": {mint("SamplePreparation", ids["image"])},
            "ImagingCondition": {mint("ImagingCondition", ids["image"])},
            "PhenotypeData": {mint("PhenotypeData", f"{ids['image']}-p{i}") for i in (0, 1)},
        }
        assert record.image_iri == mint("Image", ids["image"])
        assert isinstance(record.image_iri, Iri)

    @given(local_id=LOCAL_IDS, node=st.sampled_from(NODES))
    @settings(max_examples=50, deadline=None)
    def test_lone_surrogate_is_skipped_as_invalid_iri(
            self, local_id, node, registry, policy, links):
        ids = dict.fromkeys(NODES, "X") | {node: local_id[:1] + "\ud800" + local_id[1:]}
        result = map_images([full_pair(ids)], registry, policy, links, skip_errors=True)
        assert (result.records, len(result.graph)) == ((), 0)
        assert [(s.image_id, s.code) for s in result.skipped] == [(ids["image"], "InvalidIri")]

    @pytest.mark.parametrize("node", NODES)
    def test_empty_id_is_an_error(self, node, registry, policy, links):
        ids = dict.fromkeys(NODES, "X") | {node: ""}
        with pytest.raises(MappingFailedError) as err:
            map_one(*full_pair(ids), registry, policy, links)
        assert (err.value.image_id, err.value.code) == (ids["image"], "EmptyLocalId")
        assert isinstance(err.value.__cause__, EmptyLocalIdError)


def other_registries():
    """Registries that are not the core: empty, a translated fragment, and
    the core without one of its properties."""
    core = build_core_ontology()
    concepts = extract_concepts(parse_xsd_subset((DATA / "ome_subset.xsd").read_text()))
    return {
        "empty": OntologyRegistry(Iri("http://ns.example/#"), (), ()),
        "fragment": concepts_to_registry_fragment(concepts, "http://frag.example/o#"),
        "core-less-one-property": replace(core, properties=core.properties[:-1]),
    }


class TestRegistry:
    """The mapper maps under the core only, which it reads at import."""

    @pytest.mark.parametrize("name", ["empty", "fragment", "core-less-one-property"])
    @pytest.mark.parametrize("skip_errors", [False, True])
    def test_other_registry_raises_once_before_any_record(
            self, name, skip_errors, policy, links):
        other = other_registries()[name]
        doc, anns = generated_document(1)
        with pytest.raises(UnknownClassInRegistryError) as err:
            map_document(doc, anns, other, policy, links, skip_errors=skip_errors)
        assert str(err.value) == f"{other.namespace} is not the core ontology"

    @pytest.mark.parametrize("fmt, name", [("ntriples", "golden.nt"), ("turtle", "golden.ttl")])
    def test_registry_rebuilt_from_the_core_rows_maps_the_same_bytes(
            self, fmt, name, registry, policy, links):
        rebuilt = OntologyRegistry(
            Iri(registry.namespace.value), tuple(replace(c) for c in registry.classes),
            tuple(replace(p) for p in registry.properties), registry.conditional_rules)
        assert rebuilt is not registry
        g = map_document(*document("golden"), rebuilt, policy, links).graph
        assert serialize(g, fmt).encode("utf-8") == (DATA / name).read_bytes()
