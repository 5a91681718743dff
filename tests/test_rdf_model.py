import gc
import pickle
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ome_rdf.errors import (
    InvalidBlankNodeError,
    InvalidIriError,
    InvalidLiteralError,
)
from ome_rdf.links import LinkRegistry
from ome_rdf.mapper import MintingPolicy, map_document
from ome_rdf.namespaces import RDF_LANGSTRING, RDF_TYPE, XSD_INTEGER, XSD_NS, XSD_STRING
from ome_rdf.ome_xml import parse_ome_document, parse_sidecar
from ome_rdf.ontology import build_core_ontology
from ome_rdf.rdf import (
    BlankNode,
    Graph,
    Iri,
    Literal,
    Triple,
    parse_ntriples,
    parse_turtle,
    term_sort_key,
)
from ome_rdf.rdf import model
from ome_rdf.rdf.model import _IRI_FORBIDDEN_RE, _LEXICAL_FORMS, _SHARED, iri_text
from ome_rdf.rdf.parse import _Scanner

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
        assert Literal("hi") == ("hi", XSD_STRING, None)

    def test_language_implies_langstring(self):
        assert Literal("hej", language="sv") == ("hej", RDF_LANGSTRING, "sv")

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

    # one valid and one invalid lexical form per checked datatype local name
    LEXICAL_FORMS = {
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
        "dateTime": ("-0044-03-15T12:00:00.5", "2020-01-01"),
        "date": ("-0044-03-15+01:00", "2020-01-01T00:00:00"),
        "time": ("23:59:59.5Z", "24:00:00"),
        "boolean": ("1", "True"),
        "hexBinary": ("0fB7", "0FB"),
        "base64Binary": ("Q UJ D", "QUJD "),
    }

    @pytest.mark.parametrize("datatype", sorted(_LEXICAL_FORMS))
    def test_numeric_lexical_table(self, datatype):
        valid, invalid = self.LEXICAL_FORMS[datatype.rsplit("#", 1)[1]]
        assert Literal(valid, Iri(datatype))[0] == valid
        with pytest.raises(InvalidLiteralError, match="does not parse as"):
            Literal(invalid, Iri(datatype))

    # XSD 1.1 part 2, 3.3.15 and 3.3.16: hex digits in pairs; base64 in
    # groups of four, a single space allowed after any character but the
    # last, the final group padded with "=" only after bits that end at zero
    @pytest.mark.parametrize("local, valid, invalid", [
        ("hexBinary", ["", "00", "0fB7", "FFff00"], ["0", "zz", "0x00", " 00", "00 "]),
        ("base64Binary",
         ["", "QUJD", "QUI=", "QQ==", "Q Q = =", "QUJD RA==", "+/9z"],
         ["A", "QUJ", "Q===", "QR==", "QUK=", "!!!", "QUJD ", " QUJD", "QU  JD", "=QUJ"]),
    ])
    def test_binary_lexical_forms(self, local, valid, invalid):
        for lexical in valid:
            assert Literal(lexical, Iri(XSD_NS + local))[0] == lexical
        for lexical in invalid:
            with pytest.raises(InvalidLiteralError, match="does not parse as"):
                Literal(lexical, Iri(XSD_NS + local))

    # the least and greatest value of each bounded integer type, as XSD 1.1
    # defines them, and the values just past them
    INTEGER_BOUNDS = {
        "long": ("-9223372036854775808", "9223372036854775807",
                 "-9223372036854775809", "9223372036854775808"),
        "int": ("-2147483648", "2147483647", "-2147483649", "2147483648"),
        "short": ("-32768", "32767", "-32769", "32768"),
        "byte": ("-128", "127", "-129", "128"),
        "nonNegativeInteger": ("-0", "9" * 5000, "-1", None),
        "positiveInteger": ("+000001", "9" * 5000, "0", None),
        "unsignedLong": ("0", "18446744073709551615", "-1", "18446744073709551616"),
        "unsignedInt": ("-0", "4294967295", "-1", "4294967296"),
    }

    @pytest.mark.parametrize("local", sorted(INTEGER_BOUNDS))
    def test_integer_value_space(self, local):
        datatype = Iri(XSD_NS + local)
        least, greatest, below, above = self.INTEGER_BOUNDS[local]
        assert Literal(least, datatype)[0] == least
        assert Literal(greatest, datatype)[0] == greatest
        for outside in (below, above):
            if outside is not None:
                with pytest.raises(InvalidLiteralError, match="outside the value space"):
                    Literal(outside, datatype)

    @pytest.mark.parametrize("lexical, local", [
        ("-1", "nonNegativeInteger"),
        ("0", "positiveInteger"),
        ("300", "byte"),
        ("99999999999", "int"),
        # past int()'s 4300-digit limit, and padded past it with zeros
        ("1" + "0" * 5000, "unsignedLong"),
        ("-" + "9" * 5000, "nonNegativeInteger"),
        ("0" * 5000 + "128", "byte"),
    ])
    def test_integer_outside_value_space_rejected(self, lexical, local):
        with pytest.raises(InvalidLiteralError, match="outside the value space"):
            Literal(lexical, Iri(XSD_NS + local))

    def test_unbounded_integer_keeps_any_length(self):
        for lexical in ("-" + "9" * 5000, "0" * 5000 + "7"):
            assert Literal(lexical, Iri(XSD_INTEGER))[0] == lexical

    @pytest.mark.parametrize("lexical", [
        "2020-02-29T23:59:59Z", "2000-02-29T00:00:00+14:00", "0000-02-29T00:00:00-13:59",
        "12000-02-29T00:00:00", "-0001-12-31T00:00:00.000001Z", "2020-04-30T00:00:00",
    ])
    def test_datetime_in_value_space(self, lexical):
        assert Literal(lexical, Iri(XSD_NS + "dateTime"))[0] == lexical

    @pytest.mark.parametrize("lexical", [
        "2019-02-29T00:00:00Z", "1900-02-29T00:00:00Z", "2020-04-31T00:00:00Z",
        "2020-02-30T00:00:00", "-0001-02-29T00:00:00Z",
    ])
    def test_datetime_day_outside_month_rejected(self, lexical):
        with pytest.raises(InvalidLiteralError, match="outside the value space"):
            Literal(lexical, Iri(XSD_NS + "dateTime"))

    @pytest.mark.parametrize("lexical", [
        "2020-13-01T00:00:00Z", "2020-00-01T00:00:00Z", "2020-01-00T00:00:00Z",
        "2020-01-32T00:00:00Z", "2020-01-01T24:00:00Z", "2020-01-01T00:60:00Z",
        "2020-01-01T00:00:60Z", "2020-13-45T99:00:00Z",
        "2020-01-01T00:00:00+14:01", "2020-01-01T00:00:00+15:00", "2020-1-01T00:00:00",
        "00020-01-01T00:00:00", "2020-01-01T00:00", "2020-01-01 00:00:00", "2020-01-01T00:00:00.",
        "maybe",
    ])
    def test_datetime_lexical_form_rejected(self, lexical):
        with pytest.raises(InvalidLiteralError, match="does not parse as"):
            Literal(lexical, Iri(XSD_NS + "dateTime"))

    @pytest.mark.parametrize("local, lexical", [
        ("date", "2020-02-29"), ("date", "-0001-12-31Z"), ("date", "12000-01-01+14:00"),
        ("time", "00:00:00"), ("time", "23:59:59.000001-13:59"), ("time", "12:30:00Z"),
    ])
    def test_date_and_time_in_value_space(self, local, lexical):
        assert Literal(lexical, Iri(XSD_NS + local))[0] == lexical

    @pytest.mark.parametrize("local, lexical", [
        ("date", "not a date"), ("date", "2020-13-01"), ("date", "2020-01-32"),
        ("date", "2020-01-01+15:00"), ("date", "20-01-01"), ("date", "2020-01-01T00:00:00"),
        ("time", "25:99"), ("time", "24:00:00"), ("time", "12:00"), ("time", "12:00:60"),
        ("time", "12:00:00+14:01"), ("time", "12:00:00."),
    ])
    def test_date_and_time_lexical_form_rejected(self, local, lexical):
        with pytest.raises(InvalidLiteralError, match="does not parse as"):
            Literal(lexical, Iri(XSD_NS + local))

    @pytest.mark.parametrize("lexical", ["2019-02-29", "1900-02-29Z", "2020-04-31-05:00"])
    def test_date_day_outside_month_rejected(self, lexical):
        with pytest.raises(InvalidLiteralError, match="outside the value space"):
            Literal(lexical, Iri(XSD_NS + "date"))

    def test_bad_language_tag(self):
        for tag in ("english language tag", "en\n"):
            with pytest.raises(InvalidLiteralError):
                Literal("x", language=tag)


class TestBlankNode:
    def test_label_shape(self):
        BlankNode("a1")
        for bad in ("", "1a", "a b", "_x", "a\n"):
            with pytest.raises(InvalidBlankNodeError):
                BlankNode(bad)

    def test_is_the_exact_1_tuple_of_its_label(self):
        class Label(str):
            pass

        for label in ("a1", Label("a1")):
            node = BlankNode(label)
            assert node == ("a1",) and type(node) is tuple and type(node[0]) is str

    def test_triple_checks_a_1_tuple_subject_through_blank_node(self):
        assert Triple(("b",), EX + "p", ("c",)) == (("b",), EX + "p", ("c",))
        with pytest.raises(InvalidBlankNodeError):
            Triple(("a b",), EX + "p", EX + "o")
        with pytest.raises(TypeError):
            Triple((5,), EX + "p", EX + "o")

    def test_sorts_after_iris_and_before_literals(self):
        terms = [Literal("a"), BlankNode("z"), EX + "z", BlankNode("a"), EX + "a"]
        assert sorted(terms, key=term_sort_key) == [
            EX + "a", EX + "z", BlankNode("a"), BlankNode("z"), Literal("a")]


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
        for name in ("1bad", "ex\n"):
            with pytest.raises(ValueError):
                Graph([], {name: EX})

    def test_prefix_namespace_as_str_or_iri(self):
        g = Graph([], {"ex": EX, "iri": Iri(EX + "ns#")})
        assert dict(g.prefixes) == {"ex": EX, "iri": EX + "ns#"}
        with pytest.raises(InvalidIriError):
            Graph([], {"ex": "not an iri"})


class TestGraphOrder:
    """A graph yields each distinct triple once, in the order it first
    arrived; equality, hashing and ``triples`` ignore that order."""

    @staticmethod
    def _inputs(seed):
        """Triples of a random graph, some twice, in a random order."""
        rng = random.Random(seed)
        ts = list(random_graph(rng, max_triples=20))
        ts += rng.choices(ts, k=len(ts) // 2)
        rng.shuffle(ts)
        return ts

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32), st.booleans())
    def test_iteration_follows_first_occurrence(self, seed, as_generator):
        ts = self._inputs(seed)
        g = Graph((x for x in ts) if as_generator else ts)
        assert list(g) == list(dict.fromkeys(ts))
        assert len(g) == len(set(ts))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32))
    def test_equality_and_hash_ignore_order(self, seed):
        ts = self._inputs(seed)
        g, back = Graph(ts), Graph(reversed(ts))
        assert g == back and hash(g) == hash(back)
        assert type(g.triples) is frozenset and g.triples == frozenset(ts)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32))
    def test_pickle_keeps_equality_and_order(self, seed):
        g = Graph(self._inputs(seed), {"ex": EX})
        again = pickle.loads(pickle.dumps(g))
        assert again == g and list(again) == list(g)
        assert dict(again.prefixes) == {"ex": EX}


def _fresh(term):
    """A new object equal in value to the graph term ``term``, built through
    its constructor."""
    if isinstance(term, str):
        return Iri(term).value
    if len(term) == 1:
        return BlankNode(term[0])
    return Literal(*term)


def _field_hash(term):
    """The hash of a blank node's label in a fresh 1-tuple, worked out now;
    an IRI's or a literal's own hash otherwise."""
    if type(term) is tuple and len(term) == 1:
        return hash((term[0],))
    return hash(term)


class TestHashContract:
    """Equal terms and triples hash equal, and as the built-ins of their values."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32))
    def test_equal_values_hash_equal(self, seed):
        g = random_graph(random.Random(seed), max_triples=20)
        for t in g:
            pairs = [(t, Triple(*map(_fresh, t)))] + [(x, _fresh(x)) for x in t]
            for x, copy in pairs:
                assert copy == x and copy is not x
                assert hash(copy) == hash(x) == _field_hash(x)

    def test_pickle_rehashes_in_a_new_interpreter(self):
        # a str hash changes with PYTHONHASHSEED, so a copied hash would be
        # stale in another interpreter; a graph triple is built-ins only, and
        # an Iri handle is built again through its constructor
        value = (Triple(Iri(EX + "s"), Iri(EX + "p"), Literal("v", language="en")),
                 Iri(EX + "h"))
        code = ("import pickle, sys; from ome_rdf.rdf import Iri; "
                f"sys.stdout.buffer.write(pickle.dumps({value!r}))")
        dumped = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, check=True,
            env={"PYTHONPATH": ":".join(sys.path), "PYTHONHASHSEED": "12345",
                 "PYTHONDONTWRITEBYTECODE": "1"}).stdout
        loaded = pickle.loads(dumped)
        assert loaded == value and type(loaded[1]) is Iri
        assert hash(loaded) == hash(value)


class TestBuiltinTerms:
    """An Iri is a str; Literal and Triple return exact tuples of exact
    built-ins, with every item checked."""

    def test_iri_is_its_text(self):
        iri = Iri(EX + "s")
        assert iri == EX + "s" and hash(iri) == hash(EX + "s")
        assert type(iri.value) is str and iri.value == EX + "s"
        assert str(iri) == EX + "s" and f"<{iri}>" == f"<{EX}s>"

    def test_literal_and_triple_equal_plain_tuples(self):
        lit = Literal("v", language="en")
        assert lit == ("v", RDF_LANGSTRING, "en") and hash(lit) == hash(("v", RDF_LANGSTRING, "en"))
        triple = t("s", "p", "o")
        assert triple == (EX + "s", EX + "p", EX + "o")
        assert type(lit) is tuple and type(triple) is tuple
        assert [type(x) for x in (*lit[:2], *triple)] == [str] * 5

    @pytest.mark.parametrize("position", range(3))
    def test_triple_copies_an_iri_to_its_text(self, position):
        terms = [EX + "s", EX + "p", EX + "o"]
        terms[position] = Iri(terms[position])
        triple = Triple(*terms)
        assert triple == (EX + "s", EX + "p", EX + "o")
        assert [type(x) for x in triple] == [str] * 3

    @pytest.mark.parametrize("position", range(3))
    @pytest.mark.parametrize("bad", ["no scheme", "nocolon", "http://a b", "http://a<b"])
    def test_triple_checks_plain_str(self, position, bad):
        terms = [EX + "s", EX + "p", EX + "o"]
        assert Triple(*terms) == tuple(terms)
        terms[position] = bad
        with pytest.raises(InvalidIriError):
            Triple(*terms)

    @pytest.mark.parametrize("obj, error", [
        (("fortytwo", XSD_INTEGER, None), InvalidLiteralError),
        (("300", XSD_NS + "byte", None), InvalidLiteralError),
        (("x", None, "not a tag"), InvalidLiteralError),
        (("x", "no scheme", None), InvalidIriError),
        (("x", XSD_STRING), TypeError),
        (("x", XSD_STRING, None, None), TypeError),
        (42, TypeError),
        # a 1-tuple goes through BlankNode
        (("a b",), InvalidBlankNodeError),
        ((5,), TypeError),
    ])
    def test_triple_checks_a_plain_object(self, obj, error):
        with pytest.raises(error):
            Triple(EX + "s", EX + "p", obj)

    @pytest.mark.parametrize("subject, predicate", [
        (("x", XSD_STRING, None), EX + "p"), (42, EX + "p"),
        (EX + "s", BlankNode("b")), (EX + "s", ("x", XSD_STRING, None)), (EX + "s", 42),
    ])
    def test_triple_rejects_subject_or_predicate_of_another_kind(self, subject, predicate):
        with pytest.raises(TypeError):
            Triple(subject, predicate, EX + "o")

    def test_triple_checks_a_plain_literal_through_literal(self):
        triple = Triple(EX + "s", EX + "p", ("5", XSD_INTEGER, None))
        assert triple == (EX + "s", EX + "p", Literal("5", Iri(XSD_INTEGER)))

    @pytest.mark.parametrize("datatype", [42, b"http://ex.org/dt", ("x",)])
    def test_literal_rejects_non_iri_datatype(self, datatype):
        with pytest.raises(TypeError, match="literal datatype must be an Iri"):
            Literal("1", datatype)

    def test_literal_checks_plain_str_datatype_as_an_iri(self):
        assert Literal("1", XSD_INTEGER) == Literal("1", Iri(XSD_INTEGER))
        assert type(Literal("1", Iri(XSD_INTEGER))[1]) is str
        for bad in ("integer", "xsd:integer x", "http://a<b"):
            with pytest.raises(InvalidIriError):
                Literal("1", bad)
        with pytest.raises(InvalidLiteralError, match="does not parse as"):
            Literal("x", XSD_INTEGER)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_literal_of_a_literal_is_itself(self, data):
        datatype = data.draw(st.sampled_from(sorted(_LEXICAL_FORMS)))
        lexical = data.draw(st.from_regex(_LEXICAL_FORMS[datatype][0], fullmatch=True))
        try:
            lit = Literal(lexical, Iri(datatype))
        except InvalidLiteralError:
            assume(False)  # outside the value space
        assert Literal(*lit) == lit == Literal(lexical, datatype)
        assert type(Literal(*lit)) is tuple

    @pytest.mark.parametrize("term, field", [
        (Iri(EX + "s"), "value"),
        (Literal("v"), "lexical"), (Literal("v"), "datatype"), (Literal("v"), "language"),
        (t("s", "p", "o"), "subject"), (t("s", "p", "o"), "predicate"),
        (t("s", "p", "o"), "object"),
    ])
    def test_fields_are_read_only(self, term, field):
        with pytest.raises(AttributeError):
            setattr(term, field, Iri(EX + "x"))

    @pytest.mark.parametrize("term", [
        Iri(EX + "s"), Literal("v"), Literal("v", language="en"),
        Literal("5", Iri(XSD_INTEGER)), t("s", "p", "o"),
        Triple(Iri(EX + "s"), Iri(EX + "p"), Literal("it's \"quoted\"", language="en")),
        Triple(BlankNode("b1"), Iri(EX + "p"), BlankNode("b2")),
    ])
    def test_repr_evaluates_to_an_equal_term(self, term):
        copy = eval(repr(term))
        assert copy == term and type(copy) is type(term)


DATA = Path(__file__).parent / "data"
# a valid IRI text: a scheme, then no character the IRI check forbids
_VALID_IRI = st.builds(
    "{}:{}".format,
    st.from_regex(r"[A-Za-z][A-Za-z0-9+.-]*", fullmatch=True),
    st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp"),
                          blacklist_characters='<>"{}|^`\\')),
).filter(lambda text: not _IRI_FORBIDDEN_RE.search(text))


class _Text(str):
    __slots__ = ()


def _copy(text: str) -> str:
    """A new exact ``str`` of ``text``, never the object passed in."""
    return "".join(list(text))


def _mapped_golden():
    doc = parse_ome_document((DATA / "golden.ome.xml").read_text(encoding="utf-8"))
    anns = parse_sidecar((DATA / "golden.ann.tsv").read_text(encoding="utf-8"))
    return map_document(doc, anns, build_core_ontology(), MintingPolicy(Iri("http://ex.org/i/")),
                        LinkRegistry.default())


# the tests of sharing itself; a runtime that never frees an interned string
# shares nothing, and the tests of memory still run there
_shares = pytest.mark.skipif(
    not _SHARED, reason="this runtime keeps interned strings for good, so iri_text interns nothing")


class TestSharedIriObjects:
    """Every checked IRI text is one object for the whole process, whichever
    producer checked it; Iri handles and minted instance IRIs are not; and
    the IRIs a reader has seen go with the last graph that holds them."""

    @_shares
    def test_every_producer_holds_one_object_per_text(self):
        text = _copy(EX + "shared")
        nt = parse_ntriples(f'<{text}> <{text}> <{text}> .\n<{EX}s> <{EX}p> "1"^^<{text}> .\n')
        (nt_s, nt_p, nt_o), (_, _, (_, nt_datatype, _)) = nt
        prefix = f"@prefix ex: <{EX}> .\n"
        # the two forms in two calls, so that no per-call table joins them
        [(ttl_iri, _, _)] = parse_turtle(f'{prefix}<{text}> ex:p "1" .\n')
        [(ttl_pname, _, _)] = parse_turtle(f'{prefix}ex:shared ex:p "1" .\n')
        built = Triple(_copy(text), _copy(EX + "p"), _copy(EX + "o"))[0]
        datatype = Literal("1", _copy(text))[1]
        prefix_ns = Graph((), {"x": _Text(text)}).prefixes["x"]
        held = [nt_s, nt_p, nt_o, nt_datatype, ttl_iri, ttl_pname, built, datatype, prefix_ns]
        assert all(obj is nt_s for obj in held)

    @_shares
    @pytest.mark.parametrize("parse, name", [(parse_ntriples, "golden.nt"),
                                             (parse_turtle, "golden.ttl")])
    def test_a_mapped_graph_shares_its_vocabulary_with_a_parsed_one(self, parse, name):
        mapped = _mapped_golden().graph
        parsed = parse((DATA / name).read_text(encoding="utf-8"))
        assert mapped == parsed
        # the parsed graph's object for each predicate, class and datatype text
        vocabulary = {}
        for _, p, o in parsed:
            vocabulary[p] = p
            if p == RDF_TYPE:
                vocabulary[o] = o
            elif type(o) is tuple:
                vocabulary[o[1]] = o[1]
        shared = [p for _, p, _ in mapped]
        shared += [o for _, p, o in mapped if p == RDF_TYPE]
        shared += [o[1] for _, _, o in mapped if type(o) is tuple]
        assert all(vocabulary[x] is x for x in shared)

    @_shares
    def test_vocabulary_is_shared_when_other_code_interned_it_first(self):
        # then the namespace constants are not the process's objects for
        # their texts, but the keyword "a", the mapper's rdf:type and a
        # literal's default datatype still are
        code = (f"import sys; a_type, a_string = map(sys.intern, map(''.join, "
                f"{[[RDF_TYPE[:-4], 'type'], [XSD_STRING[:-6], 'string']]!r}))\n"
                "import test_rdf_model as t\n"
                "[(_, a, (_, string, _))] = t.parse_turtle('<a:s> a \"x\" .')\n"
                "mapped = t._mapped_golden().graph\n"
                "types = {id(p) for _, p, _ in mapped if p == a_type}\n"
                "strings = {id(o[1]) for _, _, o in mapped if type(o) is tuple and o[1] == a_string}\n"
                "print(t.RDF_TYPE is not a_type, t.XSD_STRING is not a_string, a is a_type,\n"
                "      string is a_string, types == {id(a_type)}, strings == {id(a_string)})\n")
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={"PYTHONPATH": ":".join(sys.path), "PYTHONDONTWRITEBYTECODE": "1"}).stdout
        assert out.split() == ["True"] * 6

    def test_minted_iris_and_iri_handles_are_not_interned(self):
        for record in _mapped_golden().records:
            minted = record.triples[0][0]  # the image's own IRI
            assert minted == record.image_iri
            assert sys.intern(_copy(minted)) is not minted
        text = _copy(EX + "a-handle-only")
        Iri(text)
        assert sys.intern(_copy(text)) is not text

    @settings(max_examples=200, deadline=None)
    @given(_VALID_IRI, st.sampled_from([str, _Text, Iri]))
    def test_iri_text_is_one_exact_str_per_text(self, text, kind):
        value = kind(text)
        shared = iri_text(value)
        assert type(shared) is str and shared == value
        if _SHARED:
            assert shared is iri_text("".join(value))

    def test_a_reader_keeps_one_string_per_iri(self):
        # a reader's IRI table is keyed by the object it maps to, not by the
        # slice of text that first found it, so it holds one string per IRI
        shared = iri_text(_copy(EX + "in-the-table"))
        scanner = _Scanner("")
        assert scanner.iri(_copy(shared), 0) == shared
        assert all(key is value for key, value in scanner.iris.items())

    def test_reading_fresh_iris_keeps_memory_bounded(self):
        # a long-running reader of ever new IRIs must not keep them, on any
        # supported runtime: CPython 3.12 would, if iri_text interned there
        def read(n):
            text = "".join(f"<{EX}{n}/s{i}> <{EX}p> <{EX}{n}/o{i}> .\n" for i in range(500))
            parse_ntriples(text)
            parse_turtle(text)

        def held():
            # the model's own allocations are left out: sys.intern resizes the
            # process's table of interned strings now and then, to a size set
            # by everything interned so far, not by what is still held
            gc.collect()
            snapshot = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.Filter(False, model.__file__)])
            return sum(stat.size for stat in snapshot.statistics("filename"))

        tracemalloc.start()
        try:
            for n in range(10):
                read(n)
            before = held()
            for n in range(10, 60):
                read(n)
            grown = held() - before
        finally:
            tracemalloc.stop()
        # the 50 texts read last hold 50,000 fresh IRIs, over 4 MB if kept
        assert grown < 200_000
