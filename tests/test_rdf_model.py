import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ome_rdf.errors import (
    BlankNodeCollisionError,
    InvalidBlankNodeError,
    InvalidIriError,
    InvalidLiteralError,
)
from ome_rdf.namespaces import RDF_LANGSTRING, XSD_INTEGER, XSD_STRING
from ome_rdf.rdf import (
    BlankNode,
    Graph,
    Iri,
    Literal,
    Triple,
    graph_insert,
    graph_isomorphic,
    graph_merge,
    parse,
    serialize,
)

from genutil import random_graph

EX = "http://ex.org/"


def t(s, p, o):
    return Triple(Iri(EX + s), Iri(EX + p), Iri(EX + o))


class TestIri:
    def test_wellformed(self):
        assert Iri("http://example.org/a").value == "http://example.org/a"

    def test_no_scheme_and_whitespace(self):
        with pytest.raises(InvalidIriError):
            Iri("no scheme here")

    def test_paper_strain_database_url(self):
        iri = Iri("http://metadb.riken.jp/metadb/db/rikenbrc_mouse")
        assert iri.value.endswith("rikenbrc_mouse")

    @pytest.mark.parametrize("bad", [
        "", "nocolon", "http://a<b", 'http://a"b', "http://a>b", "ht tp://x",
        # Unicode whitespace that str.isspace() rejects
        "http://a\x85b", "http://a\xa0b", "http://a\u2000b", "http://a\u2028b",
        "http://a\u3000b",
        # lone surrogates, which UTF-8 cannot encode
        "http://a\ud800b", "http://a\udfff",
    ])
    def test_rejects(self, bad):
        with pytest.raises(InvalidIriError):
            Iri(bad)

    @pytest.mark.parametrize("value, first", [
        ("http://a b<c", " "), ("http://a<b c", "<"), ("http://a\ud800 b", "\ud800"),
    ])
    def test_error_names_first_forbidden_character(self, value, first):
        with pytest.raises(InvalidIriError, match=re.escape(f"character {first!r} in")):
            Iri(value)

    def test_urn_scheme_ok(self):
        assert Iri("urn:x:1").value == "urn:x:1"


class TestLiteral:
    def test_default_datatype_is_string(self):
        assert Literal("hi").datatype.value == XSD_STRING

    def test_language_implies_langstring(self):
        lit = Literal("hej", language="sv")
        assert lit.datatype.value == RDF_LANGSTRING

    def test_language_with_other_datatype_rejected(self):
        with pytest.raises(InvalidLiteralError):
            Literal("x", Iri(XSD_STRING), language="en")

    def test_langstring_requires_tag(self):
        with pytest.raises(InvalidLiteralError):
            Literal("x", Iri(RDF_LANGSTRING))

    @pytest.mark.parametrize("lexical", ["\ud800", "a\udbffb", "x\udc00"])
    @pytest.mark.parametrize("kwargs", [
        {}, {"language": "en"}, {"datatype": Iri("http://ex.org/dt")},
    ])
    def test_lone_surrogate_rejected(self, lexical, kwargs):
        with pytest.raises(InvalidLiteralError, match="lone surrogate"):
            Literal(lexical, **kwargs)

    def test_numeric_lexical_enforced(self):
        Literal("42", Iri(XSD_INTEGER))
        with pytest.raises(InvalidLiteralError):
            Literal("fortytwo", Iri(XSD_INTEGER))

    def test_bad_language_tag(self):
        with pytest.raises(InvalidLiteralError):
            Literal("x", language="english language tag")


class TestBlankNode:
    def test_label_shape(self):
        BlankNode("a1")
        for bad in ("", "1a", "a b", "_x"):
            with pytest.raises(InvalidBlankNodeError):
                BlankNode(bad)


class TestTriple:
    def test_literal_subject_rejected(self):
        with pytest.raises(TypeError):
            Triple(Literal("x"), Iri(EX + "p"), Iri(EX + "o"))

    def test_non_iri_predicate_rejected(self):
        with pytest.raises(TypeError):
            Triple(Iri(EX + "s"), BlankNode("b"), Iri(EX + "o"))


class TestGraphInsert:
    def test_insert_into_empty(self):
        g = graph_insert(Graph(), t("s", "p", "o"))
        assert len(g) == 1

    def test_insert_same_twice(self):
        g = graph_insert(graph_insert(Graph(), t("s", "p", "o")), t("s", "p", "o"))
        assert len(g) == 1

    def test_insert_two_distinct(self):
        g = graph_insert(graph_insert(Graph(), t("s", "p", "o")), t("s", "p", "o2"))
        assert len(g) == 2

    @given(st.integers(0, 2**32))
    @settings(max_examples=30)
    def test_idempotent(self, seed):
        g = random_graph(random.Random(seed), max_triples=10)
        for triple in list(g)[:3]:
            assert graph_insert(g, triple) == g


class TestGraphMerge:
    def test_merge_with_empty_is_identity(self):
        g = Graph([t("s", "p", "o"), t("s", "q", "o")])
        assert graph_isomorphic(graph_merge(g, Graph()), g)
        assert graph_isomorphic(graph_merge(Graph(), g), g)

    def test_shared_triple_counts_once(self):
        a = Graph([t("s", "p", "o"), t("a", "p", "b")])
        b = Graph([t("s", "p", "o"), t("c", "p", "d")])
        assert len(graph_merge(a, b)) == len(a) + len(b) - 1

    def test_prefix_conflict_renamed_with_numeric_suffix(self):
        a = Graph([t("s", "p", "o")], {"ex": "http://one.example/"})
        b = Graph([t("x", "y", "z")], {"ex": "http://two.example/"})
        merged = graph_merge(a, b)
        assert merged.prefixes["ex"] == "http://one.example/"
        assert merged.prefixes["ex1"] == "http://two.example/"
        # derived check: the rename must not disturb the triple set when
        # the merged graph goes through a serialize/parse cycle
        reparsed = parse(serialize(merged, "turtle"), "turtle")
        assert reparsed.triples == merged.triples

    def test_suffix_skips_taken_names(self):
        a = Graph([], {"ex": "http://one.example/", "ex1": "http://three.example/"})
        b = Graph([], {"ex": "http://two.example/"})
        assert graph_merge(a, b).prefixes["ex2"] == "http://two.example/"

    def test_blank_collision_raises(self):
        a = Graph([Triple(BlankNode("b"), Iri(EX + "p"), Iri(EX + "o"))])
        b = Graph([Triple(BlankNode("b"), Iri(EX + "p"), Iri(EX + "o2"))])
        with pytest.raises(BlankNodeCollisionError):
            graph_merge(a, b)

    def test_blank_collision_relabels_on_request(self):
        a = Graph([Triple(BlankNode("b"), Iri(EX + "p"), Iri(EX + "o"))])
        b = Graph([Triple(BlankNode("b"), Iri(EX + "p"), Iri(EX + "o2"))])
        merged = graph_merge(a, b, relabel=True)
        assert len(merged) == 2
        assert len(merged.blank_labels()) == 2

    @given(st.integers(0, 2**32), st.integers(0, 2**32))
    @settings(max_examples=30)
    def test_merge_size_bounded(self, s1, s2):
        a = random_graph(random.Random(s1), max_blanks=0)
        b = random_graph(random.Random(s2), max_blanks=0)
        merged = graph_merge(a, b)
        assert len(merged) <= len(a) + len(b)
        assert a.triples <= merged.triples and b.triples <= merged.triples


class TestGraphValue:
    def test_set_semantics_on_construction(self):
        g = Graph([t("s", "p", "o"), t("s", "p", "o")])
        assert len(g) == 1

    def test_equality_ignores_prefixes(self):
        a = Graph([t("s", "p", "o")], {"ex": EX})
        b = Graph([t("s", "p", "o")])
        assert a == b

    def test_bad_prefix_name_rejected(self):
        with pytest.raises(ValueError):
            Graph([], {"1bad": EX})

    def test_prefix_namespace_as_str_or_iri(self):
        g = Graph([], {"ex": EX, "iri": Iri(EX + "ns#")})
        assert dict(g.prefixes) == {"ex": EX, "iri": EX + "ns#"}
        with pytest.raises(InvalidIriError):
            Graph([], {"ex": "not an iri"})
