"""Seeded random generators for RDF terms and graphs (supported subset only)."""

import random

from ome_rdf.namespaces import RDF_NS, RDF_TYPE, XSD_DECIMAL, XSD_INTEGER, XSD_STRING
from ome_rdf.rdf import BlankNode, Graph, Iri, Literal, Triple

from oracle import is_blank

# "café", "9z" and "a.b" are not safe Turtle local names; "" is written as
# "ex:"; "end-" and "end_" end a local name where a "." could not
_IRI_TOKENS = [
    "a", "b", "c", "node1", "node2", "pred", "p2", "x-y", "café", "", "9z", "a.b", "end-", "end_",
]
# the second base lies inside the first, so the longest namespace must win
_IRI_BASES = ["http://t.example/", "http://t.example/sub/", "http://x.example/ns#", "urn:demo:"]
_LEXICALS = [
    "",
    "plain text",
    'quo"te',
    "back\\slash",
    "line\nbreak",
    "tab\tand\rcr",
    "unicodé Ω",
    "  spaced  ",
    # Turtle and N-Triples punctuation inside the quotes
    "a . b",
    "x, y; z",
    "# not a comment",
    "1^^2",
]
_LANGS = ["en", "en-GB", "ja", "zh-Hant-TW", "de-CH-1996"]


def random_iri(rng: random.Random) -> Iri:
    if rng.random() < 0.05:
        return Iri(RDF_TYPE)
    return Iri(rng.choice(_IRI_BASES) + rng.choice(_IRI_TOKENS))


def random_blank(rng: random.Random, max_blanks: int) -> tuple:
    return BlankNode("n" + str(rng.randrange(max_blanks)))


def random_literal(rng: random.Random) -> tuple:
    kind = rng.randrange(5)
    if kind == 0:
        return Literal(rng.choice(_LEXICALS))
    if kind == 1:
        return Literal(str(rng.randrange(-1000, 1000)), Iri(XSD_INTEGER))
    if kind == 2:
        return Literal(f"{rng.randrange(1000)}.{rng.randrange(100):02d}", Iri(XSD_DECIMAL))
    if kind == 3:
        return Literal(rng.choice(_LEXICALS), Iri("http://t.example/customType"))
    return Literal(rng.choice(_LEXICALS), language=rng.choice(_LANGS))


def random_term(rng: random.Random, position: str, max_blanks: int):
    if position == "predicate":
        return Iri(RDF_TYPE) if rng.random() < 0.2 else random_iri(rng)
    roll = rng.random()
    if position == "subject":
        return random_blank(rng, max_blanks) if roll < 0.3 and max_blanks else random_iri(rng)
    if roll < 0.25 and max_blanks:
        return random_blank(rng, max_blanks)
    if roll < 0.6:
        return random_iri(rng)
    return random_literal(rng)


def random_graph(
    rng: random.Random,
    max_triples: int = 30,
    max_blanks: int = 8,
    with_prefixes: bool = False,
) -> Graph:
    n = rng.randrange(max_triples + 1)
    triples = []
    while len(triples) < n:
        # some subject-predicate pairs get several objects
        subject = random_term(rng, "subject", max_blanks)
        predicate = random_term(rng, "predicate", max_blanks)
        for _ in range(rng.choice((1, 1, 1, 2, 3))):
            triples.append(Triple(subject, predicate, random_term(rng, "object", max_blanks)))
    del triples[n:]
    return Graph(triples, random_prefixes(rng) if with_prefixes else {})


def random_prefixes(rng: random.Random) -> dict:
    """A prefix map over the generators' namespaces, empty three times in ten."""
    prefixes = {}
    if rng.random() < 0.7:
        prefixes["ex"] = "http://t.example/"
        if rng.random() < 0.5:
            prefixes["x"] = "http://x.example/ns#"
        if rng.random() < 0.3:
            prefixes["xsd"] = "http://www.w3.org/2001/XMLSchema#"
        if rng.random() < 0.3:
            prefixes["sub"] = "http://t.example/sub/"
        if rng.random() < 0.3:
            # "ex:pred" and "p:red" are both safe: the longest namespace must win
            prefixes["p"] = "http://t.example/p"
        if rng.random() < 0.2:
            prefixes["ex2"] = "http://t.example/"  # same namespace: "ex" wins by name
        if rng.random() < 0.3:
            prefixes["rdf"] = RDF_NS
    return prefixes


def templated_graph(rng: random.Random, max_subjects: int = 40, max_blanks: int = 8) -> Graph:
    """Many subjects over a few predicate templates, as the mapper writes
    records: a template may repeat a predicate, and some subjects take
    theirs in another order, so equal predicate sequences recur and equal
    multisets come in different orders."""
    templates = []
    for _ in range(rng.randint(1, 3)):
        template = [random_term(rng, "predicate", max_blanks) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.5:
            template += [rng.choice(template)] * rng.randint(1, 2)
        templates.append(template)
    triples = []
    for k in range(rng.randrange(max_subjects + 1)):
        subject = BlankNode(f"s{k}") if rng.random() < 0.3 else Iri(f"http://t.example/s{k}")
        predicates = list(rng.choice(templates))
        if rng.random() < 0.3:
            rng.shuffle(predicates)
        for predicate in predicates:
            triples.append(Triple(subject, predicate, random_term(rng, "object", max_blanks)))
    return Graph(triples, random_prefixes(rng))


def rename_blanks(g: Graph, mapping: dict) -> Graph:
    def sub(term):
        if is_blank(term):
            return BlankNode(mapping.get(term[0], term[0]))
        return term

    return Graph(
        (Triple(sub(s), p, sub(o)) for s, p, o in g),
        dict(g.prefixes),
    )
