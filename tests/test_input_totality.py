"""Totality of the input parsers: a mutated OME-XML document or sidecar
parses, or raises an ``OmeRdfError`` with a code; a pair that parses maps,
record by record, or is skipped with a code.  A mutated XML schema
translates into an ontology fragment whose graph reads back from Turtle,
or raises an ``OmeRdfError`` with a code.  A mutated link registry loads,
or raises a ``LinkRegistryError`` that names the faulty line."""

import random
import re
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given, note, settings
from hypothesis import strategies as st

from ome_rdf.errors import LinkRegistryError, OmeRdfError
from ome_rdf.links import LinkRegistry
from ome_rdf.mapper import MintingPolicy, map_document
from ome_rdf.ome_xml import parse_ome_document, parse_sidecar
from ome_rdf.ontology import build_core_ontology, registry_to_graph
from ome_rdf.rdf import parse_ntriples, parse_turtle, serialize
from ome_rdf.xsd_translator import (
    concepts_to_registry_fragment,
    extract_concepts,
    parse_xsd_subset,
)

DATA = Path(__file__).parent / "data"
OME_XML = (DATA / "golden.ome.xml").read_text()
SIDECAR = (DATA / "golden.ann.tsv").read_text()
XSD = (DATA / "ome_subset.xsd").read_text()
LINKS = resources.files("ome_rdf").joinpath("data/link_registry.tsv").read_text(encoding="utf-8")
LINK_PATTERN = LINKS.rstrip("\n").split("\t")[2]

# Tokens that open, close or escape markup or a cell, values at the edges of
# the fields' ranges, and characters no output may carry.
_XML_TOKENS = [
    "<", ">", "/>", '"', "'", "&", "&amp;", "&#0;", "&#xD800;", "\ud800", "\x00", " ", "\n",
    "=", "ID", 'ID="I1"', 'ID="E1"', "<Image ID=\"IMG001\">", "</Image>", "<Pixels/>",
    "0", "-1", "1e999", "NaN", "Infinity", "1E+999999999", "Z", "+15:00", "-02-30", "T24",
    "Electron", "Optical", "Sonic", " ", "\xa0",
]
_SIDECAR_TOKENS = [
    "\t", "\n", "\r", "\r\n", ";", ":", " ", "", "0", "-1", "1e999", "NaN", "1E+999999999",
    "IMG001", "IMG002", "rikenbrc_mouse:", "nope:RBRC001", "\ud800", "\x00", " ", "\xa0",
    "\x85", "%", "<", '"', "\\",
]
# the cells of the sidecar's last row
_SIDECAR_VALUES = r"[^\t\n]+(?=[^\n]*\n?\Z)"
# markup, and occurrence bounds that are negative, not ASCII, zero, or
# unbounded where a number belongs
_XSD_TOKENS = [
    "<", ">", "/>", '"', "&", "\ud800", " ", "=", "name", "xs:", "-1", "\u0661", "0", "5",
    "unbounded", 'minOccurs="2"', 'maxOccurs="0"',
]

# cell and line ends, a byte-order mark, and patterns that do not compile:
# an unclosed set or escape, a repeat count past the compiler's limit and
# nesting deeper than its recursion
_LINK_TOKENS = [
    "\ufeff", "\t", "\n", "\r\n", "\r", "\ud800", " ", "[", "]", "\\", "(", ")", "*", "?",
    "{", "a{4294967296}", "(" * 2000, ":", "A_",
]


def _mutate(text: str, rng: random.Random, tokens) -> str:
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(text))
        op = rng.choice(["insert", "delete", "truncate"])
        if op == "insert":
            text = text[:at] + rng.choice(tokens) + text[at:]
        elif op == "delete":
            text = text[:at] + text[at + rng.randint(1, 8):]
        else:
            text = text[:at]
    return text


def _mutate_values(text: str, rng: random.Random, tokens, values: str) -> str:
    """``text`` with one or two of the spans ``values`` matches mutated: the
    markup around them stays whole, so more mutants reach the mapper.  A
    first mutation can leave no span to match (a sidecar whose last row it
    emptied), and then the second is not made."""
    for _ in range(rng.randint(1, 2)):
        spans = [m.span() for m in re.finditer(values, text)]
        if not spans:
            break
        lo, hi = rng.choice(spans)
        text = text[:lo] + _mutate(text[lo:hi], rng, tokens) + text[hi:]
    return text


def _mutant(text: str, rng: random.Random, tokens, values: str) -> str:
    roll = rng.random()
    if roll < 0.2:
        return text
    if roll < 0.5:
        return _mutate(text, rng, tokens)
    return _mutate_values(text, rng, tokens, values)


def _parsed(parser, text):
    """What ``parser`` returns, or None when it raises a coded error."""
    try:
        return parser(text)
    except OmeRdfError as e:
        assert e.code != OmeRdfError.code, repr(e)
        return None


@pytest.fixture(scope="module")
def pipeline():
    return build_core_ontology(), MintingPolicy(), LinkRegistry.default()


@given(st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_mutated_inputs_parse_and_map_or_raise_coded_errors(pipeline, rng):
    registry, policy, links = pipeline
    # attribute values and element text; the cells of the data row
    ome_xml = _mutant(OME_XML, rng, _XML_TOKENS, r'(?<==")[^"]*|(?<=>)[^<>]+(?=<)')
    sidecar = _mutant(SIDECAR, rng, _SIDECAR_TOKENS, _SIDECAR_VALUES)
    note(repr((ome_xml, sidecar)))
    doc = _parsed(parse_ome_document, ome_xml)
    annotations = _parsed(parse_sidecar, sidecar)
    if doc is None or annotations is None:
        return
    result = map_document(doc, annotations, registry, policy, links, skip_errors=True)
    for skipped in result.skipped:
        assert skipped.code != OmeRdfError.code, skipped
    # every emitted term is valid RDF that reads back the same
    assert parse_ntriples(serialize(result.graph, "ntriples")) == result.graph


@pytest.mark.parametrize("seed", [1581, 2277, 19134])
def test_value_mutation_stops_when_no_cell_is_left(seed):
    # the first mutation ends the sidecar with an empty row, so the cells of
    # the last row are gone before a second mutation can pick one
    sidecar = _mutate_values(SIDECAR, random.Random(seed), _SIDECAR_TOKENS, _SIDECAR_VALUES)
    assert sidecar.endswith("\n\n") and re.search(_SIDECAR_VALUES, sidecar) is None
    _parsed(parse_sidecar, sidecar)


@given(st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_mutated_schemas_translate_or_raise_coded_errors(rng):
    # the occurrence bounds
    xsd = _mutant(XSD, rng, _XSD_TOKENS, r'(?<=Occurs=")[^"]*')
    note(repr(xsd))
    try:
        concepts = extract_concepts(parse_xsd_subset(xsd))
        fragment = concepts_to_registry_fragment(concepts, "http://frag.example/o#")
        graph = registry_to_graph(fragment)
    except OmeRdfError as e:
        assert e.code != OmeRdfError.code, repr(e)
        return
    assert parse_turtle(serialize(graph, "turtle")) == graph


@given(st.randoms(use_true_random=False).map(
    lambda rng: _mutant(LINKS, rng, _LINK_TOKENS, r"[^\t\n]+")))
@example(LINKS.replace(LINK_PATTERN, "(" * 2000 + ")" * 2000))
@example(LINKS.replace(LINK_PATTERN, "a{4294967296}"))
@settings(max_examples=150, deadline=None)
# re warns of set syntax whose meaning may change, such as "[[" or "--",
# which the mutants make often
@pytest.mark.filterwarnings("ignore::FutureWarning")
def test_mutated_link_registries_load_or_raise_coded_errors(text):
    # only loaded: resolving an id under a mutated pattern such as (a+)+$
    # could backtrack for a long time
    try:
        LinkRegistry.loads(text)
    except LinkRegistryError as e:
        # every fault of a registry is a fault of one line, which it names
        assert re.match("line [0-9]+: ", str(e)), repr(e)
