"""Core RDF data model: terms, triples, and immutable graphs.

Graphs are immutable value objects, so they can be shared freely across
threads.  Canonical text output is handled by :mod:`ome_rdf.rdf.serialize`;
note that plain iteration over a graph is *not* deterministic across
interpreter runs (string hash randomisation), which is why all serializers
sort.

:class:`Iri`, :class:`Literal` and :class:`Triple` work out their hash once,
when they are built, and keep it in a slot that equality ignores.  Pickling
builds them again rather than copying that slot, for the same reason.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, Union

from ..errors import InvalidBlankNodeError, InvalidIriError, InvalidLiteralError
from ..namespaces import (
    RDF_LANGSTRING, XSD_DATETIME, XSD_DECIMAL, XSD_DOUBLE, XSD_FLOAT, XSD_NS, XSD_STRING,
)

_SCHEME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.-]*:")
# Characters an IRI may never contain if it is to survive <...> quoting in
# N-Triples: whitespace, angle brackets, quotes, braces, pipes, carets,
# backquotes, backslashes, anything at or below U+0020, and lone surrogates,
# which UTF-8 cannot encode.
_IRI_FORBIDDEN_RE = re.compile(r'[\s<>"{}|^`\\\x00-\x20\ud800-\udfff]')
_SURROGATE_RE = re.compile(r"[\ud800-\udfff]")

_BLANK_LABEL_RE = re.compile(r"^[A-Za-z][A-Za-z0-9]*$")
_LANG_TAG_RE = re.compile(r"^[A-Za-z]{1,8}(-[A-Za-z0-9]{1,8})*$")
_PREFIX_NAME_RE = re.compile(r"^([A-Za-z][A-Za-z0-9_.-]*[A-Za-z0-9_-]|[A-Za-z])?$")

_INTEGER_LEXICAL_RE = re.compile(r"[+-]?[0-9]+")
_FLOAT_LEXICAL_RE = re.compile(
    r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?|[+-]?INF|NaN"
)
# The xsd:dateTime lexical form of XSD 1.1, except that an hour is below 24,
# with the timezone (at most 14:00 from UTC) optional; whether the day exists
# in its month is checked on the match.
DATETIME_LEXICAL_RE = re.compile(
    r"-?(0[0-9]{3}|[1-9][0-9]{3,})-(0[1-9]|1[0-2])-(0[1-9]|[12][0-9]|3[01])"
    r"T(?:[01][0-9]|2[0-3]):[0-5][0-9]:[0-5][0-9](?:\.[0-9]+)?"
    r"(Z|[+-](?:(?:0[0-9]|1[0-3]):[0-5][0-9]|14:00))?"
)
_MONTH_DAYS = (31, 29, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
# every finite integer bound below has at most this many digits
_BOUND_DIGITS = 20


def _integer_value(lexical: str):
    """The value of an integer lexical form, or an infinity of its sign when
    it has more digits than any bound (which also keeps ``int()`` under its
    digit limit)."""
    digits = lexical.lstrip("+-").lstrip("0")
    value = int(digits or "0") if len(digits) <= _BOUND_DIGITS else float("inf")
    return -value if lexical[0] == "-" else value


def _within(least, greatest):
    """The value check of an integer type with these bounds."""
    return lambda m: least <= _integer_value(m.group()) <= greatest


def datetime_day_exists(m: re.Match) -> bool:
    """Whether the day a match of :data:`DATETIME_LEXICAL_RE` names exists
    in its month (month lengths, leap years)."""
    day = m.group(3)
    if day <= "28":
        return True
    month = m.group(2)
    # the year's last four digits decide a leap year, as 10000 is 25 x 400
    year = int(m.group(1)[-4:])
    leap = year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)
    return int(day) <= _MONTH_DAYS[int(month) - 1] - (month == "02" and not leap)


# The datatypes whose literals are checked: the lexical forms each accepts
# (matched whole) and the check of the value, if any, on the match.
_LEXICAL_FORMS = {
    XSD_NS + "integer": (_INTEGER_LEXICAL_RE, None),
    XSD_NS + "long": (_INTEGER_LEXICAL_RE, _within(-2**63, 2**63 - 1)),
    XSD_NS + "int": (_INTEGER_LEXICAL_RE, _within(-2**31, 2**31 - 1)),
    XSD_NS + "short": (_INTEGER_LEXICAL_RE, _within(-2**15, 2**15 - 1)),
    XSD_NS + "byte": (_INTEGER_LEXICAL_RE, _within(-2**7, 2**7 - 1)),
    XSD_NS + "nonNegativeInteger": (_INTEGER_LEXICAL_RE, _within(0, float("inf"))),
    XSD_NS + "positiveInteger": (_INTEGER_LEXICAL_RE, _within(1, float("inf"))),
    XSD_NS + "unsignedLong": (_INTEGER_LEXICAL_RE, _within(0, 2**64 - 1)),
    XSD_NS + "unsignedInt": (_INTEGER_LEXICAL_RE, _within(0, 2**32 - 1)),
    XSD_DECIMAL: (re.compile(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)"), None),
    XSD_FLOAT: (_FLOAT_LEXICAL_RE, None),
    XSD_DOUBLE: (_FLOAT_LEXICAL_RE, None),
    XSD_DATETIME: (DATETIME_LEXICAL_RE, datetime_day_exists),
    XSD_NS + "boolean": (re.compile("true|false|1|0"), None),
}


@dataclass(frozen=True, slots=True)
class Iri:
    """An absolute IRI.  Validated on construction."""

    value: str
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = self.value
        if not v:
            raise InvalidIriError("empty IRI")
        if not _SCHEME_RE.match(v):
            raise InvalidIriError(f"missing scheme in {v!r}")
        bad = _IRI_FORBIDDEN_RE.search(v)
        if bad:
            raise InvalidIriError(f"forbidden character {bad.group()!r} in {v!r}")
        object.__setattr__(self, "_hash", hash((v,)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return Iri, (self.value,)

    def __str__(self):
        return self.value


_XSD_STRING = Iri(XSD_STRING)
_RDF_LANGSTRING = Iri(RDF_LANGSTRING)


@dataclass(frozen=True, slots=True)
class BlankNode:
    """A graph-local node.  Labels match ``[A-Za-z][A-Za-z0-9]*``."""

    label: str

    def __post_init__(self):
        if not _BLANK_LABEL_RE.match(self.label):
            raise InvalidBlankNodeError(f"bad blank node label {self.label!r}")

    def __str__(self):
        return "_:" + self.label


@dataclass(frozen=True, slots=True)
class Literal:
    """An RDF literal: lexical form, datatype IRI, optional language tag.

    ``Literal("x")`` is an ``xsd:string``; ``Literal("x", language="en")``
    is an ``rdf:langString``.  A language tag together with any other
    datatype is rejected, as are numeric lexical forms that do not match
    their datatype and integers outside their datatype's range.
    """

    lexical: str
    datatype: Iri = field(default=None)  # type: ignore[assignment]
    language: Optional[str] = None
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bad = _SURROGATE_RE.search(self.lexical)
        if bad:
            raise InvalidLiteralError(
                f"lone surrogate {bad.group()!r} in lexical form {self.lexical!r}"
            )
        if self.language is not None:
            if not _LANG_TAG_RE.match(self.language):
                raise InvalidLiteralError(f"bad language tag {self.language!r}")
            if self.datatype is None:
                object.__setattr__(self, "datatype", _RDF_LANGSTRING)
            elif self.datatype.value != RDF_LANGSTRING:
                raise InvalidLiteralError(
                    "language tag requires the rdf:langString datatype"
                )
        elif self.datatype is None:
            object.__setattr__(self, "datatype", _XSD_STRING)
        elif self.datatype.value == RDF_LANGSTRING:
            raise InvalidLiteralError("rdf:langString requires a language tag")
        checked = _LEXICAL_FORMS.get(self.datatype.value)
        if checked is not None:
            lexical_re, in_value_space = checked
            m = lexical_re.fullmatch(self.lexical)
            if m is None:
                raise InvalidLiteralError(
                    f"lexical form {self.lexical!r} does not parse as {self.datatype.value}"
                )
            if in_value_space is not None and not in_value_space(m):
                raise InvalidLiteralError(
                    f"{self.lexical!r} is outside the value space of {self.datatype.value}"
                )
        object.__setattr__(self, "_hash", hash((self.lexical, self.datatype, self.language)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return Literal, (self.lexical, self.datatype, self.language)


Term = Union[Iri, BlankNode, Literal]


def term_sort_key(t: Term):
    """Total order over terms: IRIs, then blank nodes, then literals."""
    if isinstance(t, Iri):
        return (0, t.value, "", "")
    if isinstance(t, BlankNode):
        return (1, t.label, "", "")
    return (2, t.lexical, t.datatype.value, t.language or "")


@dataclass(frozen=True, slots=True)
class Triple:
    """One RDF statement.  Subjects are IRIs or blank nodes, never literals."""

    subject: Term
    predicate: Iri
    object: Term
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.subject, Literal):
            raise TypeError("triple subject cannot be a literal")
        if not isinstance(self.subject, (Iri, BlankNode)):
            raise TypeError(f"bad subject {self.subject!r}")
        if not isinstance(self.predicate, Iri):
            raise TypeError("triple predicate must be an IRI")
        if not isinstance(self.object, (Iri, BlankNode, Literal)):
            raise TypeError(f"bad object {self.object!r}")
        object.__setattr__(self, "_hash", hash((self.subject, self.predicate, self.object)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return Triple, (self.subject, self.predicate, self.object)


class Graph:
    """An immutable set of triples plus a prefix map.

    Equality compares triple sets only; prefix maps are serialization
    hints.  Duplicate triples collapse (set semantics).
    """

    __slots__ = ("_triples", "_prefixes")

    def __init__(
        self,
        triples: Iterable[Triple] = (),
        prefixes: Optional[Mapping[str, str]] = None,
    ):
        self._triples = frozenset(triples)
        pfx = {}
        for name, ns in (prefixes or {}).items():
            if not _PREFIX_NAME_RE.match(name):
                raise ValueError(f"bad prefix name {name!r}")
            # an Iri was validated when it was built; a str is validated here
            pfx[name] = ns.value if isinstance(ns, Iri) else Iri(ns).value
        self._prefixes = pfx

    @property
    def triples(self) -> frozenset:
        return self._triples

    @property
    def prefixes(self) -> Mapping[str, str]:
        return MappingProxyType(self._prefixes)

    def __len__(self) -> int:
        return len(self._triples)

    def __contains__(self, t: Triple) -> bool:
        return t in self._triples

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._triples == other._triples

    def __hash__(self):
        return hash(self._triples)

    def __repr__(self):
        return f"Graph({len(self._triples)} triples, {len(self._prefixes)} prefixes)"
