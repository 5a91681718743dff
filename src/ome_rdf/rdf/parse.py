"""Parsers for the supported Turtle and N-Triples subset.

Supported: prefix declarations (``@prefix`` and SPARQL ``PREFIX``), IRIs,
labelled blank nodes, plain/typed/language literals, predicate lists with
``;`` and object lists with ``,``, and the ``a`` keyword.  Everything else
in the Turtle grammar (collections, anonymous blanks, ``@base``, numeric
and boolean shorthand, triple quoting) raises
:class:`UnsupportedConstructError`; malformed input raises
:class:`RdfSyntaxError` with line and column.

Each parser takes the common case with one compiled regex: N-Triples a
whole statement up to its line end, Turtle a verb, and an object with the
whitespace after it up to the ``,``, ``;`` or ``.`` that follows.  Those
regexes take no escapes and no comment but one after an N-Triples
statement's dot, and a term they take is one the scanner would read the
same way.  Whatever they do not take (escapes, comments, blank nodes in
Turtle, any malformed text) goes to the token scanner from the same
offset.  The scanner is the only reader of everything else and the only
source of errors: it consumes each token (whitespace and comments, names,
the runs of IRI and string bodies between escapes) with one compiled
regex, and counts line and column from the text only when an error is
raised.

Both readers build terms through the same two per-call tables, one of
IRIs and one of literals, so each distinct term is validated once, in
textual order; an invalid term never enters a table and is reported at
its ``<`` or ``"`` (a prefixed name just after its end), wherever it recurs.

Whitespace is what the grammars allow, not what ``str.isspace`` accepts:
space and tab between the terms of an N-Triples statement; space, tab,
CR and LF between N-Triples statements and anywhere in Turtle.  A line,
and so a comment, ends at CR, LF or CRLF.
"""

from __future__ import annotations

import re

from ..errors import InvalidIriError, InvalidLiteralError, RdfSyntaxError, UnsupportedConstructError
from ..namespaces import RDF_TYPE
from .model import BlankNode, Graph, Iri, Literal, Triple

_ECHAR = {
    "t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
    '"': '"', "'": "'", "\\": "\\",
}
# a local name may hold "%" only before two hex digits
_PNAME_RE = re.compile(
    r"([A-Za-z][A-Za-z0-9_.-]*)?:"
    r"([A-Za-z0-9_][A-Za-z0-9_.-]*(?:%[0-9A-Fa-f]{2}[A-Za-z0-9_.-]*)*)?"
)
_BLANK_RE = re.compile(r"_:([A-Za-z][A-Za-z0-9]*)")
_LANGTAG_RE = re.compile(r"@([A-Za-z]{1,8}(?:-[A-Za-z0-9]{1,8})*)")
_KEYWORD_RE = re.compile(r"[A-Za-z@]+")
_BOOLEAN_RE = re.compile(r"(?:true|false)[.,;]*(?![^ \t\r\n])")
_HEX_RE = re.compile(r"[0-9A-Fa-f]*")
# whitespace and comments; the second form stops at a line end
_SKIP_RE = re.compile(r"(?:[ \t\r\n]+|#[^\r\n]*)*")
_SKIP_INLINE_RE = re.compile(r"(?:[ \t]+|#[^\r\n]*)*")
# what may follow an N-Triples statement on its line
_LINE_END_RE = re.compile(r"[ \t]*(?:#[^\r\n]*)?")
# the runs between escapes and terminators
_IRI_BODY_RE = re.compile(r"[^>\\]*")
_STRING_BODY_RE = re.compile(r'[^"\\\r\n]*')
_RDF_TYPE = Iri(RDF_TYPE)

# The fast paths' terms: an IRI body without escapes or the ASCII characters
# an Iri forbids, a string without escapes, and a prefixed name whose local
# part is the scanner's once trailing dots are stripped (the lookahead stops
# a shorter match where the scanner would read on).
_IRI = r'<([^<>"{}|^`\\\x00-\x20]*)>'
_STRING = r'"([^"\\\r\n]*)"'
_LANG = r"@([A-Za-z]{1,8}(?:-[A-Za-z0-9]{1,8})*)"
_PNAME = (r"([A-Za-z][A-Za-z0-9_.-]*)?:"
          r"((?:[A-Za-z0-9_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?(?!\.*[A-Za-z0-9_%-]))?)"
          r"(?![A-Za-z0-9_])")
_NODE = rf"(?:{_IRI}|_:([A-Za-z][A-Za-z0-9]*))"
_NAME = rf"(?:{_IRI}|{_PNAME})"
# a whole N-Triples statement up to its line end; groups: subject IRI or
# label, predicate, object IRI or label, lexical form, datatype, language
_NT_STATEMENT_RE = re.compile(
    rf"{_NODE}[ \t]*{_IRI}[ \t]*(?:{_NODE}|{_STRING}(?:\^\^{_IRI}|{_LANG})?)"
    r"[ \t]*\.[ \t]*(?:#[^\r\n]*)?(?![^\r\n])"
)
# a Turtle verb; groups: the keyword "a", then IRI or prefix and local name
_TTL_VERB_RE = re.compile(rf"(a)(?![^ \t\r\n<#])|{_NAME}")
# a Turtle object and the whitespace before the "," ";" or "." after it;
# groups: IRI or prefix and local name, lexical form, the same three for the
# datatype, language
_TTL_OBJECT_RE = re.compile(
    rf"(?:{_NAME}|{_STRING}(?:\^\^{_NAME}|{_LANG})?)[ \t\r\n]*(?=[,;.])"
)


class _Scanner:
    """A cursor over the text; positions are worked out only for errors.

    Two per-call tables hold the terms built so far: ``iris`` maps each
    valid IRI text to its :class:`Iri`, and ``literals`` maps each valid
    (lexical form, datatype :class:`Iri` or None, language) to its
    :class:`Literal`.  So a recurring term is built, validated and hashed
    once, whether the scanner or a fast path read it.  Invalid terms never
    enter them, so each one is reported where it occurs.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.iris = {}
        self.literals = {}

    def position(self, at: int) -> tuple:
        """The 1-based (line, column) of offset ``at``; CRLF is one line end."""
        text = self.text
        line = text.count("\n", 0, at) + text.count("\r", 0, at) - text.count("\r\n", 0, at)
        return line + 1, at - max(text.rfind("\n", 0, at), text.rfind("\r", 0, at))

    def error(self, message: str, cls=RdfSyntaxError):
        raise cls(message, *self.position(self.pos))

    def unsupported(self, construct: str):
        self.error(f"unsupported construct: {construct}", UnsupportedConstructError)

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def skip_ws_and_comments(self, newlines: bool = True):
        self.match_re(_SKIP_RE if newlines else _SKIP_INLINE_RE)

    def match_re(self, pattern: re.Pattern):
        m = pattern.match(self.text, self.pos)
        if m:
            self.pos = m.end()
        return m

    def expect(self, literal: str):
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
        else:
            self.error(f"expected {literal!r}")

    def iri(self, value: str, at: int) -> Iri:
        """The :class:`Iri` of ``value``; an invalid one is an error at offset ``at``."""
        iri = self.iris.get(value)
        if iri is None:
            try:
                iri = self.iris[value] = Iri(value)
            except InvalidIriError as e:
                raise RdfSyntaxError(str(e), *self.position(at)) from e
        return iri

    def literal(self, lexical: str, datatype, language, at: int) -> Literal:
        """The :class:`Literal` of its parts; an invalid one is an error at offset ``at``."""
        key = (lexical, datatype, language)
        literal = self.literals.get(key)
        if literal is None:
            try:
                literal = self.literals[key] = Literal(lexical, datatype, language)
            except InvalidLiteralError as e:
                raise RdfSyntaxError(str(e), *self.position(at)) from e
        return literal

    def read_uchar(self) -> str:
        # positioned after the backslash, on "u", "U" or the end of the text
        kind = self.peek()
        width = 4 if kind == "u" else 8
        self.pos += len(kind)
        hexes = self.text[self.pos:self.pos + width]
        if len(hexes) < width or not _HEX_RE.fullmatch(hexes):
            self.error(f"bad \\{kind} escape")
        code = int(hexes, 16)
        if 0xD800 <= code <= 0xDFFF or code > 0x10FFFF:
            # surrogates and out-of-range values cannot be written as UTF-8
            self.error(f"\\{kind}{hexes} is not a Unicode scalar value")
        self.pos += width
        return chr(code)

    def read_iriref(self) -> Iri:
        start = self.pos
        self.expect("<")
        if self.peek() == "<":
            self.unsupported("quoted triple")
        chars = []
        while True:
            chars.append(self.match_re(_IRI_BODY_RE).group())
            ch = self.peek()
            if ch == ">":
                self.pos += 1
                break
            if ch == "":
                self.error("unterminated IRI")
            self.pos += 1  # the backslash
            if self.peek() in "uU":
                chars.append(self.read_uchar())
            else:
                self.error("only \\u / \\U escapes allowed in IRIs")
        return self.iri("".join(chars), start)

    def read_string(self) -> str:
        self.expect('"')
        if self.text.startswith('""', self.pos):
            # empty string unless a third quote follows (long string form)
            if self.text.startswith('"""', self.pos - 1):
                self.unsupported("triple-quoted string")
        chars = []
        while True:
            chars.append(self.match_re(_STRING_BODY_RE).group())
            ch = self.peek()
            if ch == '"':
                self.pos += 1
                return "".join(chars)
            if ch == "":
                self.error("unterminated string")
            if ch in "\r\n":
                self.error("newline in single-quoted string")
            self.pos += 1  # the backslash
            esc = self.peek()
            if esc in "uU":
                chars.append(self.read_uchar())
            elif esc in _ECHAR:
                chars.append(_ECHAR[esc])
                self.pos += 1
            else:
                self.error(f"bad escape \\{esc}")


def _read_literal(sc: _Scanner, resolve_pname) -> Literal:
    start = sc.pos
    lexical = sc.read_string()
    language = None
    datatype = None
    if sc.peek() == "@":
        m = sc.match_re(_LANGTAG_RE)
        if not m:
            sc.error("bad language tag")
        language = m.group(1)
    elif sc.text.startswith("^^", sc.pos):
        sc.pos += 2
        if sc.peek() == "<":
            datatype = sc.read_iriref()
        else:
            datatype = resolve_pname(sc)
    return sc.literal(lexical, datatype, language, start)


# --------------------------------------------------------------- N-Triples

def _no_pname(sc: _Scanner):
    sc.error("prefixed names are not allowed in N-Triples")


def _read_node(sc: _Scanner):
    ch = sc.peek()
    if ch == "<":
        return sc.read_iriref()
    if ch == "_":
        m = sc.match_re(_BLANK_RE)
        if not m:
            sc.error("bad blank node label")
        return BlankNode(m.group(1))
    sc.error(f"expected IRI or blank node, found {ch!r}")


def _read_statement(sc: _Scanner) -> Triple:
    """Read the N-Triples statement at ``sc.pos`` token by token."""
    subject = _read_node(sc)
    sc.skip_ws_and_comments(newlines=False)
    if sc.peek() != "<":
        sc.error("expected IRI predicate")
    predicate = sc.read_iriref()
    sc.skip_ws_and_comments(newlines=False)
    ch = sc.peek()
    if ch == '"':
        obj = _read_literal(sc, _no_pname)
    elif ch in "<_":
        obj = _read_node(sc)
    else:
        sc.error(f"expected term, found {ch!r}")
    sc.skip_ws_and_comments(newlines=False)
    sc.expect(".")
    sc.match_re(_LINE_END_RE)
    if sc.peek() not in ("", "\r", "\n"):
        sc.error("expected end of line after '.'")
    return Triple(subject, predicate, obj)


def parse_ntriples(text: str) -> Graph:
    sc = _Scanner(text)
    iri = sc.iri
    statement = _NT_STATEMENT_RE.match
    triples = []
    while True:
        sc.skip_ws_and_comments()
        if sc.eof():
            break
        m = statement(text, sc.pos)
        if m is None:
            triples.append(_read_statement(sc))
            continue
        s, s_label, p, o, o_label, lexical, datatype, language = m.groups()
        subject = BlankNode(s_label) if s is None else iri(s, m.start(1) - 1)
        predicate = iri(p, m.start(3) - 1)
        if o is not None:
            obj = iri(o, m.start(4) - 1)
        elif o_label is not None:
            obj = BlankNode(o_label)
        else:
            if datatype is not None:
                datatype = iri(datatype, m.start(7) - 1)
            obj = sc.literal(lexical, datatype, language, m.start(6) - 1)
        triples.append(Triple(subject, predicate, obj))
        sc.pos = m.end()
    return Graph(triples)


# ------------------------------------------------------------------ Turtle

_UNSUPPORTED_OPENERS = {
    "[": "anonymous blank node",
    "(": "collection",
}


def parse_turtle(text: str) -> Graph:
    sc = _Scanner(text)
    prefixes: dict = {}
    triples = []

    def resolve_pname(_sc):
        m = _sc.match_re(_PNAME_RE)
        if not m:
            _sc.error("expected prefixed name")
        prefix = m.group(1) or ""
        glued = m.group(2) or ""
        # statement-terminating dot(s) glued to the local name
        local = glued.rstrip(".")
        _sc.pos -= len(glued) - len(local)
        if prefix not in prefixes:
            _sc.error(f"undeclared prefix {prefix!r}")
        return _sc.iri(prefixes[prefix] + local, _sc.pos)

    def read_term(position: str):
        ch = sc.peek()
        if ch in _UNSUPPORTED_OPENERS:
            sc.unsupported(_UNSUPPORTED_OPENERS[ch])
        if ch == "<":
            return sc.read_iriref()
        if ch == "_" and sc.text.startswith("_:", sc.pos):
            m = sc.match_re(_BLANK_RE)
            if not m:
                sc.error("bad blank node label")
            return BlankNode(m.group(1))
        if position == "object":
            if ch == '"':
                return _read_literal(sc, resolve_pname)
            if ch == "'":
                sc.unsupported("single-quoted string")
            if ch != "" and ch in "0123456789+-.":
                sc.unsupported("numeric literal shorthand")
            if _BOOLEAN_RE.match(sc.text, sc.pos):
                sc.unsupported("boolean literal shorthand")
        m = _PNAME_RE.match(sc.text, sc.pos)
        if m and ":" in m.group(0):
            return resolve_pname(sc)
        sc.error(f"expected {position} term, found {ch!r}")

    def fast_name(m, k):
        # the Iri of groups k to k + 2 of a fast-path match, or None where
        # the scanner must read it because its prefix is undeclared
        value = m.group(k)
        if value is not None:
            return sc.iri(value, m.start(k) - 1)
        ns = prefixes.get(m.group(k + 1) or "")
        return None if ns is None else sc.iri(ns + m.group(k + 2), m.end(k + 2))

    def fast_object(m):
        # the term a match of _TTL_OBJECT_RE names, or None as above
        _, _, _, lexical, datatype, _, dt_local, language = m.groups()
        if lexical is None:
            return fast_name(m, 1)
        if datatype is not None or dt_local is not None:
            datatype = fast_name(m, 5)
            if datatype is None:
                return None
        return sc.literal(lexical, datatype, language, m.start(4) - 1)

    def read_verb() -> Iri:
        m = _TTL_VERB_RE.match(text, sc.pos)
        if m:
            verb = _RDF_TYPE if m.group(1) else fast_name(m, 2)
            if verb is not None:
                sc.pos = m.end()
                return verb
        # "a" followed by whitespace, "<", or a comment is the type keyword;
        # "a:x" or "abc:x" are prefixed names
        if sc.peek() == "a":
            nxt = sc.text[sc.pos + 1: sc.pos + 2]
            if nxt == "" or nxt in " \t\r\n<#":
                sc.pos += 1
                return _RDF_TYPE
        term = read_term("predicate")
        if not isinstance(term, Iri):
            sc.error("predicate must be an IRI")
        return term

    def read_directive():
        m = sc.match_re(_KEYWORD_RE)
        word = m.group(0) if m else ""
        lowered = word.lower()
        if lowered in ("@base", "base"):
            sc.unsupported("@base")
        if lowered not in ("@prefix", "prefix"):
            sc.error(f"unknown directive {word!r}")
        sc.skip_ws_and_comments()
        pm = sc.match_re(_PNAME_RE)
        if not pm or pm.group(2):
            sc.error("expected prefix declaration name ending in ':'")
        name = pm.group(1) or ""
        if name.endswith("."):
            sc.error(f"prefix name {name!r} ends with '.'")
        sc.skip_ws_and_comments()
        ns = sc.read_iriref()
        sc.skip_ws_and_comments()
        if lowered == "@prefix":
            sc.expect(".")
        elif sc.peek() == ".":  # tolerate SPARQL PREFIX with trailing dot
            sc.pos += 1
        prefixes[name] = ns.value

    while True:
        sc.skip_ws_and_comments()
        if sc.eof():
            break
        ch = sc.peek()
        kw = _KEYWORD_RE.match(sc.text, sc.pos)
        if ch == "@" or (
            kw
            and kw.group(0).lower() in ("prefix", "base")
            and not sc.text.startswith(":", kw.end())
        ):
            read_directive()
            continue
        subject = read_term("subject")
        sc.skip_ws_and_comments()
        while True:
            predicate = read_verb()
            while True:
                sc.skip_ws_and_comments()
                m = _TTL_OBJECT_RE.match(text, sc.pos)
                obj = fast_object(m) if m else None
                if obj is None:
                    obj = read_term("object")
                    sc.skip_ws_and_comments()
                else:
                    sc.pos = m.end()
                triples.append(Triple(subject, predicate, obj))
                if sc.peek() == ",":
                    sc.pos += 1
                    continue
                break
            if sc.peek() == ";":
                sc.pos += 1
                sc.skip_ws_and_comments()
                if sc.peek() == ".":  # trailing semicolon
                    break
                continue
            break
        sc.skip_ws_and_comments()
        sc.expect(".")
    return Graph(triples, prefixes)


def parse(text: str, format: str = "ntriples") -> Graph:
    """Parse ``text`` in the named format into a :class:`Graph`."""
    if format == "ntriples":
        return parse_ntriples(text)
    if format == "turtle":
        return parse_turtle(text)
    raise RdfSyntaxError(f"unknown format {format!r}")
