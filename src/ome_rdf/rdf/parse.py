"""Parsers for the supported Turtle and N-Triples subset.

Supported: prefix declarations (``@prefix`` and SPARQL ``PREFIX``), IRIs,
labelled blank nodes, plain/typed/language literals, predicate lists with
``;`` and object lists with ``,``, and the ``a`` keyword.  Everything else
in the Turtle grammar (collections, anonymous blanks, ``@base``, numeric
and boolean shorthand, triple quoting) raises
:class:`UnsupportedConstructError`; malformed input raises
:class:`RdfSyntaxError` with line and column.
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
_PNAME_RE = re.compile(r"([A-Za-z][A-Za-z0-9_.-]*)?:([A-Za-z0-9_][A-Za-z0-9_.%-]*)?")
_BLANK_RE = re.compile(r"_:([A-Za-z][A-Za-z0-9]*)")
_LANGTAG_RE = re.compile(r"@([A-Za-z]{1,8}(?:-[A-Za-z0-9]{1,8})*)")
_KEYWORD_RE = re.compile(r"[A-Za-z@]+")


class _Scanner:
    """Character scanner with line/column tracking."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def error(self, message: str, cls=RdfSyntaxError):
        raise cls(message, self.line, self.col)

    def unsupported(self, construct: str):
        self.error(f"unsupported construct: {construct}", UnsupportedConstructError)

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def advance(self, n: int = 1):
        for _ in range(n):
            if self.pos < len(self.text):
                if self.text[self.pos] == "\n":
                    self.line += 1
                    self.col = 1
                else:
                    self.col += 1
                self.pos += 1

    def skip_ws_and_comments(self, newlines: bool = True):
        while not self.eof():
            ch = self.peek()
            if ch == "#":
                while not self.eof() and self.peek() != "\n":
                    self.advance()
            elif ch == "\n" and not newlines:
                return
            elif ch.isspace():
                self.advance()
            else:
                return

    def match_re(self, pattern: re.Pattern):
        m = pattern.match(self.text, self.pos)
        if m:
            self.advance(len(m.group(0)))
        return m

    def expect(self, literal: str):
        if self.text.startswith(literal, self.pos):
            self.advance(len(literal))
        else:
            self.error(f"expected {literal!r}")

    def read_uchar(self) -> str:
        # positioned after the backslash
        kind = self.peek()
        width = 4 if kind == "u" else 8
        self.advance()
        hexes = self.text[self.pos:self.pos + width]
        if len(hexes) < width or not all(c in "0123456789abcdefABCDEF" for c in hexes):
            self.error(f"bad \\{kind} escape")
        code = int(hexes, 16)
        if 0xD800 <= code <= 0xDFFF or code > 0x10FFFF:
            # surrogates and out-of-range values cannot be written as UTF-8
            self.error(f"\\{kind}{hexes} is not a Unicode scalar value")
        self.advance(width)
        return chr(code)

    def read_iriref(self) -> Iri:
        start_line, start_col = self.line, self.col
        self.expect("<")
        if self.peek() == "<":
            self.unsupported("quoted triple")
        chars = []
        while True:
            if self.eof():
                self.error("unterminated IRI")
            ch = self.peek()
            if ch == ">":
                self.advance()
                break
            if ch == "\\":
                self.advance()
                if self.peek() in "uU":
                    chars.append(self.read_uchar())
                else:
                    self.error("only \\u / \\U escapes allowed in IRIs")
            else:
                self.advance()
                chars.append(ch)
        try:
            return Iri("".join(chars))
        except InvalidIriError as e:
            raise RdfSyntaxError(str(e), start_line, start_col) from e

    def read_string(self) -> str:
        self.expect('"')
        if self.text.startswith('""', self.pos):
            # empty string unless a third quote follows (long string form)
            if self.text.startswith('"""', self.pos - 1):
                self.unsupported("triple-quoted string")
        chars = []
        while True:
            if self.eof():
                self.error("unterminated string")
            ch = self.peek()
            if ch == '"':
                self.advance()
                return "".join(chars)
            if ch == "\n":
                self.error("newline in single-quoted string")
            if ch == "\\":
                self.advance()
                esc = self.peek()
                if esc in "uU":
                    chars.append(self.read_uchar())
                elif esc in _ECHAR:
                    chars.append(_ECHAR[esc])
                    self.advance()
                else:
                    self.error(f"bad escape \\{esc}")
            else:
                chars.append(ch)
                self.advance()


def _read_literal(sc: _Scanner, resolve_pname) -> Literal:
    line, col = sc.line, sc.col
    lexical = sc.read_string()
    language = None
    datatype = None
    if sc.peek() == "@":
        m = sc.match_re(_LANGTAG_RE)
        if not m:
            sc.error("bad language tag")
        language = m.group(1)
    elif sc.text.startswith("^^", sc.pos):
        sc.advance(2)
        if sc.peek() == "<":
            datatype = sc.read_iriref()
        else:
            datatype = resolve_pname(sc)
    try:
        return Literal(lexical, datatype, language)
    except InvalidLiteralError as e:
        raise RdfSyntaxError(str(e), line, col) from e


# --------------------------------------------------------------- N-Triples

def parse_ntriples(text: str) -> Graph:
    sc = _Scanner(text)
    triples = []

    def no_pname(_sc):
        _sc.error("prefixed names are not allowed in N-Triples")

    def read_subject():
        ch = sc.peek()
        if ch == "<":
            return sc.read_iriref()
        if ch == "_":
            m = sc.match_re(_BLANK_RE)
            if not m:
                sc.error("bad blank node label")
            return BlankNode(m.group(1))
        sc.error(f"expected IRI or blank node, found {ch!r}")

    while True:
        sc.skip_ws_and_comments()
        if sc.eof():
            break
        subject = read_subject()
        sc.skip_ws_and_comments(newlines=False)
        if sc.peek() != "<":
            sc.error("expected IRI predicate")
        predicate = sc.read_iriref()
        sc.skip_ws_and_comments(newlines=False)
        ch = sc.peek()
        if ch == '"':
            obj = _read_literal(sc, no_pname)
        elif ch in "<_":
            obj = read_subject()
        else:
            sc.error(f"expected term, found {ch!r}")
        sc.skip_ws_and_comments(newlines=False)
        sc.expect(".")
        triples.append(Triple(subject, predicate, obj))
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
        local = m.group(2) or ""
        while local.endswith("."):
            # statement-terminating dot(s) glued to the local name
            _sc.pos -= 1
            _sc.col -= 1
            local = local[:-1]
        if prefix not in prefixes:
            _sc.error(f"undeclared prefix {prefix!r}")
        try:
            return Iri(prefixes[prefix] + local)
        except InvalidIriError as e:
            raise RdfSyntaxError(str(e), _sc.line, _sc.col) from e

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
            if ch.isdigit() or ch in "+-.":
                sc.unsupported("numeric literal shorthand")
            if sc.text.startswith("true", sc.pos) or sc.text.startswith("false", sc.pos):
                after = sc.text[sc.pos:].split(None, 1)[0].rstrip(".,;")
                if after in ("true", "false"):
                    sc.unsupported("boolean literal shorthand")
        m = _PNAME_RE.match(sc.text, sc.pos)
        if m and ":" in m.group(0):
            return resolve_pname(sc)
        sc.error(f"expected {position} term, found {ch!r}")

    def read_verb() -> Iri:
        # "a" followed by whitespace, "<", or a comment is the type keyword;
        # "a:x" or "abc:x" are prefixed names
        if sc.peek() == "a":
            nxt = sc.text[sc.pos + 1: sc.pos + 2]
            if nxt == "" or nxt.isspace() or nxt in "<#":
                sc.advance()
                return Iri(RDF_TYPE)
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
        sc.skip_ws_and_comments()
        ns = sc.read_iriref()
        sc.skip_ws_and_comments()
        if lowered == "@prefix":
            sc.expect(".")
        elif sc.peek() == ".":  # tolerate SPARQL PREFIX with trailing dot
            sc.advance()
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
        while True:
            sc.skip_ws_and_comments()
            predicate = read_verb()
            while True:
                sc.skip_ws_and_comments()
                obj = read_term("object")
                triples.append(Triple(subject, predicate, obj))
                sc.skip_ws_and_comments()
                if sc.peek() == ",":
                    sc.advance()
                    continue
                break
            if sc.peek() == ";":
                sc.advance()
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
