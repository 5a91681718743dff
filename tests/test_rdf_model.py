import pickle
import random
import re
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ome_rdf.errors import (
    InvalidBlankNodeError,
    InvalidIriError,
    InvalidLiteralError,
)
from ome_rdf.namespaces import RDF_LANGSTRING, XSD_INTEGER, XSD_NS, XSD_STRING
from ome_rdf.rdf import (
    BlankNode,
    Graph,
    Iri,
    Literal,
    Triple,
    term_sort_key,
)
from ome_rdf.rdf.model import _LEXICAL_FORMS

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
