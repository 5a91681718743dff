import importlib
import random
import re
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from ome_rdf.errors import (
    InvalidIriError, OmeRdfError, RdfSyntaxError, UnknownFormatError, UnsupportedConstructError,
)
from ome_rdf.namespaces import RDF_TYPE, XSD_INTEGER
from ome_rdf.rdf import (
    BlankNode,
    Graph,
    Iri,
    Literal,
    Triple,
    parse,
    parse_ntriples,
    parse_turtle,
    serialize,
    term_to_ntriples,
)

from genutil import random_graph
from oracle import blank_labels, brute_force_isomorphic, reference_serialize_turtle

EX = "http://ex.org/"
DATA = Path(__file__).parent / "data"
_PARSE_MODULE = importlib.import_module("ome_rdf.rdf.parse")


def t(s, p, o):
    return Triple(Iri(EX + s), Iri(EX + p), Iri(EX + o))


class TestNtriplesSerialize:
    def test_empty_graph_empty_document(self):
        assert serialize(Graph(), "ntriples") == ""

    def test_term_to_ntriples_checks_its_term(self):
        assert term_to_ntriples(EX + "s") == term_to_ntriples(Iri(EX + "s")) == f"<{EX}s>"
        assert term_to_ntriples(Literal("5", Iri(XSD_INTEGER))) == f'"5"^^<{XSD_INTEGER}>'
        with pytest.raises(InvalidIriError):
            term_to_ntriples("no scheme")
        with pytest.raises(TypeError):
            term_to_ntriples(42)

    def test_single_ground_triple_single_line(self):
        text = serialize(Graph([t("s", "p", "o")]), "ntriples")
        lines = text.splitlines()
        assert len(lines) == 1
        assert lines[0] == f"<{EX}s> <{EX}p> <{EX}o> ."

    def test_lines_sorted_bytewise_no_trailing_blank(self):
        # literals take one character from each UTF-8 length class and from
        # both sides of the surrogate gap
        chars = ["z", "\xe9", "\u07ff", "\u0800", "\ud7ff", "\ue000", "\uffff", "\U00010000"]
        g = Graph([t("z", "p", "o"), t("a", "p", "o"), t("m", "p", "o")]
                  + [Triple(Iri(EX + "s"), Iri(EX + "p"), Literal(c)) for c in chars])
        text = serialize(g, "ntriples")
        lines = text.split("\n")
        assert lines[-1] == ""  # final LF, nothing after it
        body = lines[:-1]
        assert len(body) == 3 + len(chars)
        assert body == sorted(body, key=lambda s: s.encode("utf-8"))

    def test_random_ground_graph_roundtrip_sorted_lines(self):
        # derived oracle: compare the sorted N-Triples line lists directly
        rng = random.Random(1234)
        g = random_graph(rng, max_triples=30, max_blanks=0)
        text = serialize(g, "ntriples")
        reparsed = parse(text, "ntriples")
        assert sorted(serialize(reparsed, "ntriples").splitlines()) == sorted(
            text.splitlines()
        )
        assert reparsed == g

    def test_literal_forms(self):
        g = Graph(
            [
                Triple(Iri(EX + "s"), Iri(EX + "p"), Literal('say "hi"\n')),
                Triple(Iri(EX + "s"), Iri(EX + "q"), Literal("5", Iri(XSD_INTEGER))),
                Triple(Iri(EX + "s"), Iri(EX + "r"), Literal("bonjour", language="fr")),
            ]
        )
        text = serialize(g, "ntriples")
        assert '"say \\"hi\\"\\n"' in text
        assert f'"5"^^<{XSD_INTEGER}>' in text
        assert '"bonjour"@fr' in text

    def test_canonical_across_construction_orders(self):
        triples = [t(f"s{i}", "p", f"o{i}") for i in range(12)]
        rng = random.Random(7)
        reference = serialize(Graph(triples), "ntriples")
        for _ in range(5):
            shuffled = triples[:]
            rng.shuffle(shuffled)
            assert serialize(Graph(shuffled), "ntriples") == reference
            assert serialize(Graph(shuffled), "turtle") == serialize(
                Graph(triples), "turtle"
            )


class TestParseNtriples:
    def test_empty_document(self):
        g = parse("", "ntriples")
        assert len(g) == 0

    def test_single_line(self):
        g = parse(f"<{EX}s> <{EX}p> <{EX}o> .\n", "ntriples")
        assert len(g) == 1
        assert t("s", "p", "o") in g

    def test_comments_and_blank_lines_tolerated(self):
        text = f"# header\n\n<{EX}s> <{EX}p> \"v\" .\n"
        assert len(parse(text, "ntriples")) == 1

    def test_syntax_error_carries_position(self):
        with pytest.raises(RdfSyntaxError) as err:
            parse(f"<{EX}s> <{EX}p> .\n", "ntriples")
        assert err.value.line == 1

    def test_literal_subject_rejected(self):
        with pytest.raises(RdfSyntaxError):
            parse(f'"lit" <{EX}p> <{EX}o> .\n', "ntriples")

    def test_bad_numeric_literal_rejected(self):
        with pytest.raises(RdfSyntaxError):
            parse(f'<{EX}s> <{EX}p> "abc"^^<{XSD_INTEGER}> .\n', "ntriples")

    @pytest.mark.parametrize("end", [" . # comment\r\n", " .\r", " .\t\n"])
    def test_statement_ends_at_line_end(self, end):
        # the second statement ends at the end of the text
        text = f"<{EX}s> <{EX}p> <{EX}o>{end}<{EX}s> <{EX}p> <{EX}o2> ."
        assert parse(text, "ntriples") == Graph([t("s", "p", "o"), t("s", "p", "o2")])

    def test_uchar_escapes(self):
        g = parse(f'<{EX}s> <{EX}p> "\\u00e9\\U0001F600" .\n', "ntriples")
        ((_, _, (lexical, _, _)),) = g
        assert lexical == "é\U0001F600"

    @pytest.mark.parametrize("escape", ["\\uD800", "\\uDFFF", "\\U0000DC00", "\\U00110000"])
    @pytest.mark.parametrize("where", ["literal", "iri"])
    @pytest.mark.parametrize("fmt", ["ntriples", "turtle"])
    def test_escape_outside_unicode_scalars_rejected(self, escape, where, fmt):
        obj = f'"a{escape}"' if where == "literal" else f"<{EX}o{escape}>"
        with pytest.raises(RdfSyntaxError) as err:
            parse(f"<{EX}s> <{EX}p> {obj} .\n", fmt)
        assert err.value.line == 1

    @pytest.mark.parametrize("obj", [
        '"a\ud800"', '"\udfff"@en', f'"x\udbff"^^<{EX}dt>', f"<{EX}o\ud800>",
    ])
    @pytest.mark.parametrize("fmt", ["ntriples", "turtle"])
    def test_raw_lone_surrogate_rejected(self, obj, fmt):
        # reported at the term's opening quote or angle bracket
        head = f"<{EX}s> <{EX}p> "
        with pytest.raises(RdfSyntaxError) as err:
            parse(f"{head}<{EX}o> .\n{head}{obj} .\n", fmt)
        assert (err.value.line, err.value.column) == (2, len(head) + 1)

    @pytest.mark.parametrize("backwards", [False, True])
    def test_graph_follows_line_order(self, backwards):
        lines = (DATA / "golden.nt").read_text(encoding="utf-8").splitlines(keepends=True)
        if backwards:
            lines.reverse()
        g = parse_ntriples("".join(lines))
        assert len(g) == len(lines)
        assert list(g) == [t for line in lines for t in parse_ntriples(line)]


class TestParseTurtle:
    def test_prefix_and_three_statements(self):
        text = (
            "@prefix ex: <http://ex.org/> .\n"
            "ex:s ex:p ex:o .\n"
            "ex:s ex:q \"v\" .\n"
            "ex:o2 a ex:Thing .\n"
        )
        g = parse(text, "turtle")
        assert len(g) == 3
        assert len(g.prefixes) == 1
        # oracle: the same content written out N-Triples by hand
        expanded = (
            "<http://ex.org/s> <http://ex.org/p> <http://ex.org/o> .\n"
            '<http://ex.org/s> <http://ex.org/q> "v" .\n'
            "<http://ex.org/o2> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
            "<http://ex.org/Thing> .\n"
        )
        assert g == parse(expanded, "ntriples")

    def test_semicolons_and_commas(self):
        text = "@prefix ex: <http://ex.org/> .\nex:s ex:p ex:a, ex:b ; ex:q ex:c .\n"
        assert len(parse(text, "turtle")) == 3

    # rule [7]: verb objectList (';' (verb objectList)?)*
    @pytest.mark.parametrize("statement, pairs", [
        ("ex:s ex:p ex:o ;; ex:q ex:r .", [("p", "o"), ("q", "r")]),
        ("ex:s ex:p ex:o ; ; .", [("p", "o")]),
        ("ex:s ex:p ex:o;;ex:q ex:r;.", [("p", "o"), ("q", "r")]),
        ("ex:s ex:p ex:o ;\n  # c\n  ;\r\n  ex:q ex:r, ex:o ; ; ; .",
         [("p", "o"), ("q", "r"), ("q", "o")]),
    ])
    def test_repeated_semicolons(self, statement, pairs):
        text = "@prefix ex: <http://ex.org/> .\n" + statement
        expected = Graph([t("s", p, o) for p, o in pairs])
        assert parse_turtle(text) == expected
        assert _scanner_only(parse_turtle, text)[0] == expected

    @pytest.mark.parametrize("statement, column", [
        ("ex:s ; ex:p ex:o .", 6), ("ex:s ex:p ex:o ; , ex:q ex:r .", 18),
    ])
    def test_semicolon_needs_a_verb_before_it(self, statement, column):
        text = "@prefix ex: <http://ex.org/> .\n" + statement
        for outcome in (_outcome(parse_turtle, text), _scanner_only(parse_turtle, text)):
            assert outcome[0] is RdfSyntaxError
            assert outcome[2:] == (2, column)
            assert "expected predicate term" in outcome[1]

    def test_sparql_prefix_form(self):
        # in any case, unlike '@prefix', which W3C Turtle 1.1 makes case-sensitive
        for keyword in ("PREFIX", "PrEfIx"):
            g = parse(f"{keyword} ex: <http://ex.org/>\nex:s ex:p ex:o .", "turtle")
            assert len(g) == 1

    def test_undeclared_prefix_is_error(self):
        with pytest.raises(RdfSyntaxError):
            parse("ex:s ex:p ex:o .", "turtle")

    @pytest.mark.parametrize(
        "doc",
        [
            "@base <http://ex.org/> .",
            "BASE <http://ex.org/>",
            "bAsE <http://ex.org/>",
            "@prefix ex: <http://ex.org/> .\nex:s ex:p (1 2) .",
            "@prefix ex: <http://ex.org/> .\nex:s ex:p [] .",
            "@prefix ex: <http://ex.org/> .\nex:s ex:p 42 .",
            "@prefix ex: <http://ex.org/> .\nex:s ex:p true .",
            "@prefix ex: <http://ex.org/> .\nex:s ex:p false.",
            "@prefix ex: <http://ex.org/> .\nex:s ex:p true;, ex:q ex:o .",
            '@prefix ex: <http://ex.org/> .\nex:s ex:p """long""" .',
        ],
    )
    def test_out_of_subset_constructs(self, doc):
        with pytest.raises(UnsupportedConstructError):
            parse(doc, "turtle")

    def test_blank_node_labels(self):
        g = parse(
            "@prefix ex: <http://ex.org/> .\n_:a ex:p _:b .\n_:b ex:p ex:o .",
            "turtle",
        )
        assert blank_labels(g) == {"a", "b"}

    def test_boolean_lookalike_prefix_is_a_prefixed_name(self):
        g = parse("@prefix true: <http://ex.org/> .\ntrue:s true:p true:o .", "turtle")
        ((_, _, o),) = g
        assert o == "http://ex.org/o"

    def test_prefix_name_ending_in_dot_rejected(self):
        with pytest.raises(RdfSyntaxError) as err:
            parse("@prefix ex: <http://ex.org/> .\n@prefix ex.: <http://ex.org/> .", "turtle")
        assert (err.value.line, err.value.column) == (2, 13)

    def test_percent_escape_in_local_name(self):
        g = parse("@prefix ex: <http://ex.org/> .\nex:s ex:p ex:o%41 .", "turtle")
        ((_, _, o),) = g
        assert o == "http://ex.org/o%41"

    def test_digit_leading_local_name(self):
        g = parse("@prefix ex: <http://ex.org/> .\nex:s ex:p ex:0a .", "turtle")
        ((_, _, o),) = g
        assert o == "http://ex.org/0a"


class TestRoundTrip:
    @given(st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_both_formats(self, seed):
        g = random_graph(random.Random(seed), max_triples=30, with_prefixes=True)
        for fmt in ("ntriples", "turtle"):
            again = parse(serialize(g, fmt), fmt)
            assert brute_force_isomorphic(g, again)

    @given(st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_serialize_deterministic_under_shuffle(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, max_triples=20, with_prefixes=True)
        triples = list(g)
        rng.shuffle(triples)
        h = Graph(triples, dict(g.prefixes))
        assert serialize(h, "ntriples") == serialize(g, "ntriples")
        assert serialize(h, "turtle") == serialize(g, "turtle")


def _writer_cases(g: Graph) -> set:
    """The cases the Turtle writer must get right that ``g`` holds."""
    pairs = [(s, p) for s, p, _ in g]
    cases = {"several objects"} if len(pairs) > len(set(pairs)) else set()
    if {"http://t.example/", "http://t.example/p"} <= set(g.prefixes.values()) and any(
            p == "http://t.example/pred" for _, p, _ in g):
        cases.add("nested namespaces")
    for s, p, o in g:
        if p == RDF_TYPE:
            cases.add("rdf:type verb")
        if o == RDF_TYPE:
            cases.add("rdf:type object")
        if isinstance(s, BlankNode):
            cases.add("blank subject")
        if isinstance(o, BlankNode):
            cases.add("blank object")
        if isinstance(o, tuple) and o[2]:
            cases.add("language")
        if isinstance(o, tuple) and o[1].endswith("customType"):
            cases.add("custom datatype")
        for term in (s, p, o):
            local = re.split("[/#:]", term)[-1] if isinstance(term, str) else None
            if local in ("x-y", "café", "9z", ""):
                cases.add(f"local {local!r}")
    return cases


class TestTurtleWriter:
    """The writer against the reference writer in tests/oracle.py."""

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_same_text_as_reference(self, rng):
        g = random_graph(rng, max_triples=30, with_prefixes=True)
        assert serialize(g, "turtle") == reference_serialize_turtle(g)

    def test_generator_covers_writer_cases(self):
        cases = set()
        for seed in range(100):
            cases |= _writer_cases(random_graph(random.Random(seed), with_prefixes=True))
        assert cases == {
            "several objects", "nested namespaces", "rdf:type verb", "rdf:type object",
            "blank subject", "blank object", "language", "custom datatype",
            "local 'x-y'", "local 'café'", "local '9z'", "local ''",
        }

    def test_rdf_type_is_a_only_as_verb(self):
        rdf_type = Iri(RDF_TYPE)
        s = Iri(EX + "s")
        g = Graph([Triple(s, rdf_type, rdf_type), Triple(rdf_type, Iri(EX + "p"), s)],
                  {"ex": EX})
        text = serialize(g, "turtle")
        assert text == (
            "@prefix ex: <http://ex.org/> .\n\n"
            f"ex:s a <{RDF_TYPE}> .\n"
            f"<{RDF_TYPE}> ex:p ex:s .\n"
        )
        assert text == reference_serialize_turtle(g)

    def test_longest_namespace_then_prefix_name_wins(self):
        g = Graph([t("s", "sub", "o")], {"ex": EX, "b": EX, "s": EX + "s"})
        text = serialize(g, "turtle")
        assert text.endswith("\ns: s:ub b:o .\n")
        assert text == reference_serialize_turtle(g)


_S = "<http://a.example/s>"
_P = "<http://a.example/p>"
_NT = f"{_S} {_P} {_S} .\n"
_TTL = (
    "@prefix ex: <http://a.example/> .\n"
    "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
    "ex:s ex:p ex:o .\n"
)
_XSD = "http://www.w3.org/2001/XMLSchema#"
_XSD_INT = _XSD + "integer"


class TestErrorPositions:
    """Class, message, line and column of errors in multi-line documents."""

    @pytest.mark.parametrize("fmt, doc, cls, message, line, column", [
        ("ntriples", _NT + f"{_S} {_P} <http://a.example/o\\",
         RdfSyntaxError, "bad \\ escape", 2, 63),
        ("ntriples", _NT + f'{_S} {_P} "abc\\',
         RdfSyntaxError, "bad \\ escape", 2, 48),
        ("ntriples", _NT + f"{_S} {_P} <http://a.example/o\\q> .\n",
         RdfSyntaxError, "only \\u / \\U escapes allowed in IRIs", 2, 63),
        ("ntriples", _NT + f"{_S} {_P} <http://a.example/o\\u12> .\n",
         RdfSyntaxError, "bad \\u escape", 2, 64),
        ("ntriples", _NT + f"{_S} {_P} <http://a.example/o b> .\n",
         RdfSyntaxError, "forbidden character ' ' in 'http://a.example/o b'", 2, 43),
        ("ntriples", _NT + _NT + f'{_S} {_P} "abc"^^<{_XSD_INT}> .\n',
         RdfSyntaxError, f"lexical form 'abc' does not parse as {_XSD_INT}", 3, 43),
        ("ntriples", _NT + f'{_S} {_P} "ab\ncd" .\n',
         RdfSyntaxError, "newline in single-quoted string", 2, 46),
        *[("ntriples", _NT + f'{_S} {_P} "{lexical}"^^<{_XSD}{local}> .\n', RdfSyntaxError,
           f"{lexical!r} is outside the value space of {_XSD}{local}", 2, 43)
          for lexical, local in [("-1", "nonNegativeInteger"), ("0", "positiveInteger"),
                                 ("300", "byte"), ("99999999999", "int")]],
        *[(fmt, _NT + f'{_S} {_P} "{lexical}"^^<{_XSD}{local}> .\n', RdfSyntaxError, message, 2, 43)
          for fmt in ("ntriples", "turtle")
          for lexical, local, message in [
              ("2020-13-45T99:00:00Z", "dateTime",
               f"lexical form '2020-13-45T99:00:00Z' does not parse as {_XSD}dateTime"),
              ("maybe", "boolean", f"lexical form 'maybe' does not parse as {_XSD}boolean"),
              ("not a date", "date", f"lexical form 'not a date' does not parse as {_XSD}date"),
              ("25:99", "time", f"lexical form '25:99' does not parse as {_XSD}time")]],
        ("ntriples", _NT + f'{_S} {_P} "x"^^ex:t .\n',
         RdfSyntaxError, "prefixed names are not allowed in N-Triples", 2, 48),
        ("ntriples", _NT + f"{_S} {_P} <http://a.example/o",
         RdfSyntaxError, "unterminated IRI", 2, 62),
        ("ntriples", _NT + f'{_S} {_P} "abc',
         RdfSyntaxError, "unterminated string", 2, 47),
        ("ntriples", _NT + f'{_S} {_P} "a\\qb" .\n',
         RdfSyntaxError, "bad escape \\q", 2, 46),
        ("ntriples", _NT + f"# comment\n  {_S} {_P} {_S}\n",
         RdfSyntaxError, "expected '.'", 3, 65),
        ("ntriples", _NT + f"{_S} {_P} {_S} . {_S} {_P} {_S} .\n",
         RdfSyntaxError, "expected end of line after '.'", 2, 66),
        # terms are checked in textual order
        ("ntriples", _NT + "<s> <p> <o> .\n", RdfSyntaxError, "missing scheme in 's'", 2, 1),
        ("ntriples", _NT + f"{_S} <p> <o> .\n", RdfSyntaxError, "missing scheme in 'p'", 2, 22),
        ("turtle", _TTL + "<s> <p> ex:o .\n", RdfSyntaxError, "missing scheme in 's'", 4, 1),
        ("turtle", _TTL + "ex:s <p> <o> .\n", RdfSyntaxError, "missing scheme in 'p'", 4, 6),
        ("turtle", _TTL + "ex:s ex:p ex:o ;\n <p> <o> .\n", RdfSyntaxError,
         "missing scheme in 'p'", 5, 2),
        ("turtle", _TTL + "ex:s ex:p <o>, <o2> .\n", RdfSyntaxError,
         "missing scheme in 'o'", 4, 11),
        ("turtle", _TTL + "ex:s ex:p ex:o, <o2> .\n", RdfSyntaxError,
         "missing scheme in 'o2'", 4, 17),
        ("turtle", _TTL + "ex:s ex:p <http://a.example/o\\",
         RdfSyntaxError, "bad \\ escape", 4, 31),
        ("turtle", _TTL + 'ex:s ex:p "abc\\',
         RdfSyntaxError, "bad \\ escape", 4, 16),
        ("turtle", _TTL + "ex:s ex:p <http://a.example/o\\q> .\n",
         RdfSyntaxError, "only \\u / \\U escapes allowed in IRIs", 4, 31),
        ("turtle", _TTL + "ex:s ex:p ex:o, <http://a.example/o b> .\n",
         RdfSyntaxError, "forbidden character ' ' in 'http://a.example/o b'", 4, 17),
        ("turtle", _TTL + 'ex:s ex:p "1", "abc"^^xsd:integer .\n',
         RdfSyntaxError, f"lexical form 'abc' does not parse as {_XSD_INT}", 4, 16),
        ("turtle", _TTL + 'ex:s ex:p ex:o, "300"^^xsd:byte .\n',
         RdfSyntaxError, f"'300' is outside the value space of {_XSD}byte", 4, 17),
        ("turtle", _TTL + 'ex:s ex:p "ab\ncd" .\n',
         RdfSyntaxError, "newline in single-quoted string", 4, 14),
        ("turtle", _TTL + "ex:s ex:p <http://a.example/o",
         RdfSyntaxError, "unterminated IRI", 4, 30),
        ("turtle", _TTL + 'ex:s ex:p "abc',
         RdfSyntaxError, "unterminated string", 4, 15),
        ("turtle", _TTL + "ex:s ex:p ex:o%zz .\n",
         RdfSyntaxError, "expected '.'", 4, 15),
        ("turtle", _TTL + "ex:s ex:p zz:o.\n",
         RdfSyntaxError, "undeclared prefix 'zz'", 4, 15),
        ("turtle", _TTL + "ex:s ex:p ex:o ;\n    ex:q true.\n",
         UnsupportedConstructError, "unsupported construct: boolean literal shorthand", 5, 10),
        ("turtle", _TTL + 'ex:s ex:p """x""" .\n',
         UnsupportedConstructError, "unsupported construct: triple-quoted string", 4, 12),
        ("turtle", _TTL + "ex:s ex:p 'x' .\n",
         UnsupportedConstructError, "unsupported construct: single-quoted string", 4, 11),
        ("ntriples", _NT + f'{_S} {_P} "x"@1 .\n', RdfSyntaxError, "bad language tag", 2, 46),
        ("turtle", _TTL + f'{_S} {_P} "x"@1 .\n', RdfSyntaxError, "bad language tag", 4, 46),
        # '@prefix' and '@base' are case-sensitive
        ("turtle", _TTL + "@PREFIX ex: <http://a.example/> .\nex:s ex:p ex:o .\n",
         RdfSyntaxError, "unknown directive '@PREFIX'", 4, 8),
        ("turtle", _TTL + "@Prefix ex: <http://a.example/> .\nex:s ex:p ex:o .\n",
         RdfSyntaxError, "unknown directive '@Prefix'", 4, 8),
        ("turtle", _TTL + "@BASE <http://a.example/> .\n",
         RdfSyntaxError, "unknown directive '@BASE'", 4, 6),
    ])
    def test_error_position(self, fmt, doc, cls, message, line, column):
        with pytest.raises(RdfSyntaxError) as err:
            parse(doc, fmt)
        assert type(err.value) is cls
        assert str(err.value) == f"line {line}, column {column}: {message}"
        assert (err.value.line, err.value.column) == (line, column)


_O = "<http://a.example/o>"
_O2 = "<http://a.example/o2>"
# Unicode and control spaces that neither grammar counts as whitespace
_NOT_WHITESPACE = ["\xa0", "\x85", "\u2003", "\u2028", "\x0b", "\x0c", "\x1c"]


class TestLineEndsAndWhitespace:
    """Only the grammars' own whitespace separates terms; CR, LF and CRLF end lines."""

    def test_turtle_comment_ends_at_cr(self):
        g = parse_turtle(f"# c\r{_S} {_P} {_O2} .\r")
        assert g == parse_ntriples(f"{_S} {_P} {_O2} .\n")

    def test_ntriples_comment_ends_at_cr(self):
        g = parse_ntriples(f"{_S} {_P} {_O} . # c\r{_S} {_P} {_O2} .\r")
        assert len(g) == 2

    @pytest.mark.parametrize("ws", ["\r"] + _NOT_WHITESPACE)
    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_ntriples_terms_separated_by_space_or_tab_only(self, ws, where):
        gaps = [" ", " ", " "]
        gaps[where] = ws
        with pytest.raises(RdfSyntaxError):
            parse_ntriples(f"{_S}{gaps[0]}{_P}{gaps[1]}{_O}{gaps[2]}.\n")

    @pytest.mark.parametrize("ws", _NOT_WHITESPACE)
    @pytest.mark.parametrize("doc", [
        "{s}{ws}{p} {o} .", "{s} {p}{ws}{o} .", "{s} {p} {o}{ws}.", "{s} a{ws}{o} .",
        "{ws}{s} {p} {o} .", "{s} {p} {o} .{ws}",
    ])
    def test_turtle_rejects_other_spaces(self, ws, doc):
        with pytest.raises(RdfSyntaxError):
            parse_turtle(doc.format(s=_S, p=_P, o=_O, ws=ws))

    @pytest.mark.parametrize("ws", [" ", "\t", "\r", "\n", "\r\n"])
    def test_turtle_whitespace_between_terms(self, ws):
        g = parse_turtle(f"{_S}{ws}a{ws}{_O}{ws};{ws}{_P}{ws}{_O2}{ws}.")
        assert g == parse_ntriples(f"{_S} <{RDF_TYPE}> {_O} .\n{_S} {_P} {_O2} .\n")

    @pytest.mark.parametrize("fmt", ["ntriples", "turtle"])
    def test_raw_cr_in_string_rejected(self, fmt):
        with pytest.raises(RdfSyntaxError, match="newline in single-quoted string"):
            parse(f'{_S} {_P} "ab\rcd" .\n', fmt)

    @pytest.mark.parametrize("eol", ["\n", "\r", "\r\n"])
    def test_error_position_counts_each_line_end_once(self, eol):
        with pytest.raises(RdfSyntaxError) as err:
            parse_ntriples(_NT.replace("\n", eol) * 2 + f'{_S} {_P} "abc')
        assert (err.value.line, err.value.column) == (3, 47)

    def test_end_of_text_after_turtle_predicate(self):
        with pytest.raises(RdfSyntaxError) as err:
            parse_turtle(f"{_S} {_P} ")
        assert type(err.value) is RdfSyntaxError
        assert "expected object term" in str(err.value)


# Tokens that open, close or escape a term, plus a raw lone surrogate.
_MUTATION_TOKENS = [
    "\\", '"', "<", ">", "\n", "#", "^^", "@", "_:", "\\u", "\\uD800", "\ud800",
    ".", ":", ";", ",", " ", "a", "true", "@prefix", "'", "[", "\\U0001F600",
]


def _mutate(text: str, rng: random.Random) -> str:
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(text))
        op = rng.choice(["insert", "delete", "truncate"])
        if op == "insert":
            text = text[:at] + rng.choice(_MUTATION_TOKENS) + text[at:]
        elif op == "delete":
            text = text[:at] + text[at + rng.randint(1, 8):]
        else:
            text = text[:at]
    return text


class TestParserTotality:
    @given(st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_mutated_documents_parse_or_raise_coded_errors(self, rng):
        g = random_graph(rng, max_triples=6, with_prefixes=True)
        for fmt in ("ntriples", "turtle"):
            serialized = serialize(g, fmt)
            for _ in range(15):
                text = _mutate(serialized, rng)
                note(repr(text))
                for parser in (parse_ntriples, parse_turtle):
                    try:
                        parsed = parser(text)
                    except OmeRdfError:
                        continue
                    for out in ("ntriples", "turtle"):
                        serialize(parsed, out).encode("utf-8")


_NEVER = re.compile(r"(?!)")


def _outcome(parser, text):
    """The graph and prefixes ``parser`` reads from ``text``, or its error."""
    try:
        g = parser(text)
    except OmeRdfError as e:
        return type(e), str(e), getattr(e, "line", None), getattr(e, "column", None)
    return g, dict(g.prefixes)


def _scanner_only(parser, text):
    """``_outcome`` with the fast-path regexes matching nothing, so the token
    scanner reads every statement."""
    with mock.patch.multiple(_PARSE_MODULE, _NT_STATEMENT_RE=_NEVER, _TTL_TRIPLE_RE=_NEVER,
                             _TTL_VERB_OBJECT_RE=_NEVER, _TTL_OBJECT_RE=_NEVER):
        return _outcome(parser, text)


# The tokens of canonical Turtle: a literal with its datatype or language, an
# IRI, a blank node, "@prefix", a prefixed name, "a" and the punctuation.
_TURTLE_TOKEN_RE = re.compile(
    r'"(?:[^"\\]|\\.)*"(?:@[A-Za-z0-9-]+|\^\^(?:<[^>]*>|[A-Za-z0-9]*:[A-Za-z0-9_-]*))?'
    r"|<[^>]*>|_:[A-Za-z0-9]+|@prefix|[A-Za-z0-9]*:[A-Za-z0-9_-]*|[a,;.]"
)
# what may stand between two tokens: whitespace, line ends and comments
_GAPS = [" ", "\t", "\n", "\r", "\r\n", "  \t", " # note\n", "\n# a, b; c.\r\n", "#\r",
         " #\n\n\t"]


def _turtle_tokens(text: str) -> list:
    tokens, end = [], 0
    for m in _TURTLE_TOKEN_RE.finditer(text):
        assert text[end:m.start()].strip(" \n") == "", text[end:m.start()]
        tokens.append(m.group())
        end = m.end()
    assert text[end:].strip(" \n") == ""
    return tokens


def _relayout(tokens: list, rng: random.Random) -> str:
    """The tokens with random gaps between them, no gap at times before
    punctuation, and extra ";" after an object list."""
    out = []
    directive = False
    for tok in tokens:
        if out:
            out.append("" if tok in ",;." and rng.random() < 0.3 else rng.choice(_GAPS))
        directive = directive or tok == "@prefix"
        if tok == "." and not directive and rng.random() < 0.3:
            out += [";", rng.choice(_GAPS + [""])]  # a trailing ";"
        out.append(tok)
        if tok == ";":
            for _ in range(rng.choice((0, 0, 1, 2))):
                out += [rng.choice(_GAPS + [""]), ";"]
        directive = directive and tok != "."
    out.append(rng.choice(["", "\n", " # end", "\r\n\r\n"]))
    return "".join(out)


class TestFastPathsAgreeWithScanner:
    """The per-triple regexes give what the scanner alone gives: the same
    graph and prefixes, or the same error class, message and place."""

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_same_outcome_as_scanner_only(self, rng):
        g = random_graph(rng, max_triples=12, with_prefixes=True)
        for fmt in ("ntriples", "turtle"):
            serialized = serialize(g, fmt)
            for text in [serialized] + [_mutate(serialized, rng) for _ in range(10)]:
                note(repr(text))
                for parser in (parse_ntriples, parse_turtle):
                    assert _outcome(parser, text) == _scanner_only(parser, text)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_relaid_canonical_turtle_reads_the_same(self, rng):
        # gaps, comments and repeated ";" between the tokens of canonical
        # Turtle, whose graphs hold blank nodes, IRIs and literals of each kind
        g = random_graph(rng, max_triples=12, with_prefixes=True)
        canonical = serialize(g, "turtle")
        read = _outcome(parse_turtle, canonical)
        assert read[0] == g
        tokens = _turtle_tokens(canonical)
        for _ in range(5):
            text = _relayout(tokens, rng)
            note(repr(text))
            assert _outcome(parse_turtle, text) == read
            assert _scanner_only(parse_turtle, text) == read

    @pytest.mark.parametrize("name, parser", [("golden.nt", parse_ntriples),
                                              ("golden.ttl", parse_turtle)])
    def test_golden_files_read_the_same_without_fast_paths(self, name, parser):
        text = (DATA / name).read_text(encoding="utf-8")
        fast = _outcome(parser, text)
        assert isinstance(fast[0], Graph) and len(fast[0]) > 20
        assert fast == _scanner_only(parser, text)

    # prefixed names where a regex could stop short of the scanner's name
    @pytest.mark.parametrize("statement", [
        "ex:s ex:p%412 ex:o .", "ex:s ex:p ex:a.b%41 .", "ex:s ex:p ex:a..b, ex:a. .",
        "ex:s ex:p ex:%41 .", "ex:s ex:p ex:.", "ex:s ex:p. ex:o .", "ex:s ex:p ex:a.%41 .",
        'ex:s ex:p "1"^^ex:t.x .', 'ex:s ex:p "1"^^ex:t., "2"@en-GB.',
        "ex:s a:b ex:o, ex:o-, ex:_ .",
    ])
    def test_prefixed_names_end_where_the_scanner_ends_them(self, statement):
        text = "@prefix ex: <http://ex.org/> .\n" + statement
        assert _outcome(parse_turtle, text) == _scanner_only(parse_turtle, text)

    # empty IRIs, which are falsy but present, and terms without spaces
    @pytest.mark.parametrize("statement", [
        f'{_S} {_P} "x"^^<> .', f"<> {_P} {_O} .", f"{_S} <> {_O} .", f"{_S} {_P} <> .",
        f'{_S}{_P}""@en.', f"_:a{_P}_:b.", f'{_S} {_P} "x"^^<{_XSD}boolean> .',
    ])
    @pytest.mark.parametrize("parser", [parse_ntriples, parse_turtle])
    def test_terms_read_as_the_scanner_reads_them(self, statement, parser):
        assert _outcome(parser, statement) == _scanner_only(parser, statement)

    @pytest.mark.parametrize("parser", [parse_ntriples, parse_turtle])
    def test_scanner_only_run_reads_with_the_scanner(self, parser):
        # a canonical N-Triples line, which is also Turtle: neither shipped
        # parser reads any of its IRIs with the scanner
        line = f"{_S} {_P} {_O} .\n"
        read_iriref = _PARSE_MODULE._Scanner.read_iriref
        calls = []

        def counted(sc):
            calls.append(sc.pos)
            return read_iriref(sc)

        with mock.patch.object(_PARSE_MODULE._Scanner, "read_iriref", counted):
            fast = _outcome(parser, line)
            fast_calls = len(calls)
            assert _scanner_only(parser, line) == fast
        assert (fast_calls, len(calls) - fast_calls) == (0, 3)

    @pytest.mark.parametrize("fmt", ["ntriples", "turtle"])
    def test_canonical_text_reads_only_its_directives_with_the_scanner(self, fmt):
        ex = "http://a.example/"
        s1, s2, p, q = Iri(ex + "s1"), Iri(ex + "s2"), Iri(ex + "p"), Iri(ex + "q")
        g = Graph([
            Triple(s1, Iri(RDF_TYPE), Iri(ex + "C")),
            Triple(s1, p, Iri(ex + "o1")), Triple(s1, p, Iri(ex + "o2")),
            Triple(s1, q, Literal("5", Iri(XSD_INTEGER))),
            Triple(s2, p, Literal("x", language="en")),
            Triple(s2, q, Literal("y")),
            Triple(Iri("http://b.example/s3"), p, Iri("http://b.example/o")),
        ], {"ex": ex, "xsd": _XSD})
        text = serialize(g, fmt)
        if fmt == "turtle":
            assert text.count("@prefix") == 2 and text.count(";") == 3 and ", " in text
        body = text.find("\n\n") + 1  # 0 in N-Triples, which has no directives
        match_re = _PARSE_MODULE._Scanner.match_re
        at = []

        def counted(sc, pattern):
            at.append(sc.pos)
            return match_re(sc, pattern)

        with mock.patch.object(_PARSE_MODULE._Scanner, "match_re", counted):
            assert parse(text, fmt) == g
        # each scanner read is in a directive, but for the skip of the last line end
        assert at and all(pos < body for pos in at[:-1]) and at[-1] == len(text) - 1

    @pytest.mark.parametrize("fmt", ["ntriples", "turtle"])
    def test_scanner_builds_each_distinct_term_once(self, fmt):
        # the readers look recurring terms up in the tables themselves
        ex = "http://a.example/"
        terms = [Iri(ex + "o"), Literal("1", Iri(XSD_INTEGER)), Literal("x", language="en"),
                 Literal("y")]
        g = Graph([Triple(Iri(ex + f"s{i % 3}"), Iri(ex + f"p{i % 2}"), terms[i % 4])
                   for i in range(24)], {"ex": ex})
        calls = {"iri": 0, "literal": 0}
        scanner = _PARSE_MODULE._Scanner
        originals = {name: getattr(scanner, name) for name in calls}

        def counting(name):
            def method(sc, *args):
                calls[name] += 1
                return originals[name](sc, *args)
            return method

        with mock.patch.multiple(scanner, **{name: counting(name) for name in calls}):
            assert parse(serialize(g, fmt), fmt) == g
        # s0-s2, p0-p1, o, xsd:integer and Turtle's namespace of ex:; three literals
        assert calls == {"iri": 7 + (fmt == "turtle"), "literal": 3}

    @pytest.mark.parametrize("parser", [parse_ntriples, parse_turtle])
    def test_one_blank_node_per_label(self, parser):
        # the escape sends the second statement to the scanner; N-Triples
        # reads the others with its regex, Turtle every blank node with the
        # scanner
        text = f'_:b {_P} _:c .\n_:b {_P} "x\\ty" .\n_:c {_P} _:b .\n'
        g = parser(text)
        blanks = [term for s, _, o in g for term in (s, o) if isinstance(term, BlankNode)]
        assert len(g) == 3 and len(blanks) == 5
        assert len({id(b) for b in blanks}) == 2


class TestUnknownFormat:
    @pytest.mark.parametrize("call", [
        lambda: parse("", "rdfxml"), lambda: serialize(Graph(), "rdfxml"),
    ], ids=["parse", "serialize"])
    def test_one_coded_error_from_both(self, call):
        with pytest.raises(UnknownFormatError) as err:
            call()
        assert err.value.code == "UnknownFormat" and err.value.format == "rdfxml"
        assert isinstance(err.value, ValueError) and not isinstance(err.value, RdfSyntaxError)
        assert str(err.value) == "unknown format 'rdfxml'; expected 'ntriples' or 'turtle'"
