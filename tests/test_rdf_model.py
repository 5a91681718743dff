import re

import pytest

from ome_rdf.errors import (
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
)
from ome_rdf.rdf.model import _NUMERIC_LEXICAL

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

    # one valid and one invalid lexical form per numeric datatype local name
    NUMERIC_FORMS = {
        "integer": ("-42", "4.2"),
        "int": ("+7", "7\n"),
        "long": ("9007199254740993", "1e3"),
        "short": ("0", " 1"),
        "byte": ("-128", ""),
        "nonNegativeInteger": ("00", "+"),
        "positiveInteger": ("1", "0x1F"),
        "unsignedInt": ("4294967295", "1_000"),
        "unsignedLong": ("18446744073709551615", "\u0661"),
        "decimal": ("-.5", "1e3"),
        "float": ("-INF", "inf"),
        "double": ("6.02E23", "1.0e"),
    }

    @pytest.mark.parametrize("datatype", sorted(_NUMERIC_LEXICAL))
    def test_numeric_lexical_table(self, datatype):
        valid, invalid = self.NUMERIC_FORMS[datatype.rsplit("#", 1)[1]]
        assert Literal(valid, Iri(datatype)).lexical == valid
        with pytest.raises(InvalidLiteralError, match="does not parse as"):
            Literal(invalid, Iri(datatype))

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
