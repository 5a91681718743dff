"""Parsers for the supported Turtle and N-Triples subset.

Supported: prefix declarations (``@prefix`` and SPARQL ``PREFIX``), IRIs,
labelled blank nodes, plain/typed/language literals, predicate lists with
``;`` (which may repeat, or end the list), object lists with ``,``, and the
``a`` keyword.  Everything else
in the Turtle grammar (collections, anonymous blanks, ``@base``, numeric
and boolean shorthand, triple quoting) raises
:class:`UnsupportedConstructError`; malformed input raises
:class:`RdfSyntaxError` with line and column.

Each parser reads a triple with one compiled-regex match, from the
whitespace before it: N-Triples a whole statement up to its line end;
Turtle a step up to and with the ``,``, ``;`` or ``.`` that ends it, which
picks the next step: an object after ``,``, a verb and an object after
``;``, and a subject, a verb and an object after ``.``.  Both regexes take
one set of terms: IRIs with any body up to their ``>``, strings without
escapes, a string with its datatype or language tag, and prefixed names in
the writer's own form followed by whitespace, ``,`` or ``;``.  These fast
paths only build terms.  Whatever else a text holds (blank nodes, comments,
other local names, directives, repeated ``;``, any malformed text) goes to
the token scanner from the same offset and in the same step, and so does a
statement or step with a term the model refuses (an escape or a forbidden
character in an IRI, a lexical form its datatype does not take) or an
undeclared prefix.
The scanner is the only reader of everything else and the only source of
errors: it consumes each token (whitespace and comments, names, the runs
of IRI and string bodies between escapes) with one compiled regex, and
counts line and column from the text only when an error is raised.

Both readers build terms through the same three per-call tables, of IRIs,
literals and blank nodes, so each distinct term is checked once, in
textual order, by the model's own check (:func:`~ome_rdf.rdf.model.iri_text`
or :func:`~ome_rdf.rdf.model.Literal`); an invalid term never enters a
table and is reported at its ``<`` or ``"`` (a prefixed name just after
its end), wherever it recurs.  The graph holds the tables' values, in
exact triple tuples: literal 3-tuples, one blank node 1-tuple ``(label,)``
per label, and exact ``str`` IRIs from
:func:`~ome_rdf.rdf.model.iri_text`.  Where that interns, each is the one
object the process holds for its text, so a graph read here shares its
IRIs (and its literals' datatypes) with the graphs of every other producer
and is compared with them by pointer (see :mod:`ome_rdf.rdf.model`).

Turtle's step regexes capture each term as its source text, which a
fourth per-call table, cleared at each directive, maps to the term built
through the three above, so a recurring term costs one lookup and a
prefixed name or a literal is taken apart once (see :class:`_Scanner`).

Whitespace is what the grammars allow, not what ``str.isspace`` accepts:
space and tab between the terms of an N-Triples statement; space, tab,
CR and LF between N-Triples statements and anywhere in Turtle.  A line,
and so a comment, ends at CR, LF or CRLF.
"""

from __future__ import annotations

import re

from ..errors import (
    InvalidIriError, InvalidLiteralError, RdfSyntaxError, UnknownFormatError,
    UnsupportedConstructError,
)
from ..namespaces import RDF_TYPE
from .model import (
    BLANK_LABEL_PATTERN, LANG_TAG_PATTERN, LOCAL_NAME_PATTERN, BlankNode, Graph, Literal,
    iri_text,
)

_ECHAR = {
    "t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
    '"': '"', "'": "'", "\\": "\\",
}
# a local name may hold "%" only before two hex digits
_PNAME_RE = re.compile(
    r"([A-Za-z][A-Za-z0-9_.-]*)?:"
    r"([A-Za-z0-9_][A-Za-z0-9_.-]*(?:%[0-9A-Fa-f]{2}[A-Za-z0-9_.-]*)*)?"
)
_BLANK_RE = re.compile(rf"_:({BLANK_LABEL_PATTERN})")
_LANG = rf"@({LANG_TAG_PATTERN})"
_LANGTAG_RE = re.compile(_LANG)
_KEYWORD_RE = re.compile(r"[A-Za-z@]+")
_BOOLEAN_RE = re.compile(r"(?:true|false)[.,;]*(?![^ \t\r\n])")
_HEX_RE = re.compile(r"[0-9A-Fa-f]*")
# whitespace and comments; the second form stops at a line end
_SKIP_RE = re.compile(r"(?:[ \t\r\n]+|#[^\r\n]*)*")
_SKIP_INLINE_RE = re.compile(r"(?:[ \t]+|#[^\r\n]*)*")
# the runs between escapes and terminators
_IRI_BODY_RE = re.compile(r"[^>\\]*")
_STRING_BODY_RE = re.compile(r'[^"\\\r\n]*')

# The fast paths' terms, the one set both regexes take: an IRI body up to its
# ">", unchecked (a table hit passed the model's check, and a miss meets it
# as it is built), a string without escapes, and a prefixed name in the
# writer's form, whose local part has no dot and no "%" and is followed by
# whitespace, "," or ";" (as the writer always follows it), so the scanner
# would end the name at the same place.
_WS = r"[ \t\r\n]*"
_IRI = r"<([^>]*)>"
_STRING = f'"({_STRING_BODY_RE.pattern})"'
# the whitespace before a statement and the statement up to its line end;
# groups: subject, predicate, object IRI, lexical form, datatype, language
_NT_STATEMENT_RE = re.compile(
    rf"{_WS}{_IRI}[ \t]*{_IRI}[ \t]*(?:{_IRI}|{_STRING}(?:\^\^{_IRI}|{_LANG})?)"
    r"[ \t]*\.[ \t]*(?![^\r\n])"
)
# Turtle's terms as their source text, one group each: a name (an IRI or a
# prefixed name), a verb (the keyword "a" or a name), and an object (a name
# or a whole literal: a string, with its datatype's name or language tag)
_NAME = rf"<[^>]*>|(?:[A-Za-z][A-Za-z0-9_.-]*)?:(?:{LOCAL_NAME_PATTERN})?(?=[ \t\r\n,;])"
_VERB = rf"(a(?![^ \t\r\n<#])|{_NAME})"
_OBJECT = rf'({_NAME}|"{_STRING_BODY_RE.pattern}"(?:\^\^(?:{_NAME})|@{LANG_TAG_PATTERN})?)'
# One Turtle step each, from the whitespace before its first term to the
# ",", ";" or "." after its object, which is the last group: a subject, verb
# and object after a "."; a verb and object after a ";"; an object after a ",".
_TTL_TRIPLE_RE = re.compile(rf"{_WS}({_NAME}){_WS}{_VERB}{_WS}{_OBJECT}{_WS}([,;.])")
_TTL_VERB_OBJECT_RE = re.compile(rf"{_WS}{_VERB}{_WS}{_OBJECT}{_WS}([,;.])")
_TTL_OBJECT_RE = re.compile(rf"{_WS}{_OBJECT}{_WS}([,;.])")
# the predicate the keyword "a" stands for, as iri_text gives it: the
# namespace constant is not that object if other code interned the text first
_A = iri_text(RDF_TYPE)


class _Scanner:
    """A cursor over the text; positions are worked out only for errors.

    Three per-call tables hold the terms built so far, each value the exact
    built-in the graph holds, by the model's one rule that a ``str`` is an
    IRI, a 1-tuple a blank node and a 3-tuple a literal: ``iris`` maps the
    ``str`` :func:`iri_text` gives for each valid IRI text to itself,
    ``literals`` maps each valid (lexical form, datatype text or None,
    language) to its 3-tuple, and ``blanks`` maps each label to its 1-tuple
    from :func:`BlankNode`.  So a recurring term is built, checked and
    hashed once, whether the scanner or a fast path read it.  Only
    :meth:`new_iri`, :meth:`new_literal` and :meth:`read_blank` fill them.
    The first two raise the model's own error for an invalid term, which a
    fast path hands to the scanner, whose :meth:`iri` and :meth:`literal`
    report it where the term occurs.  The scanner reads the text from
    ``pos`` one token at a time, each with one compiled regex.

    Turtle's fast path looks each term up by its source text first:
    ``tokens`` maps an IRI with its ``<>``, a prefixed name, a whole literal
    with its datatype's name or language tag, or the keyword ``a`` to the
    term it stands for.  Only :meth:`new_term` fills it, through the tables
    above, and a directive clears it, because a prefix declared again gives
    its names new IRIs.  N-Triples has no such table: it looks its IRIs up
    in ``iris`` by their body, a key that table holds anyway, where source
    text keys read no faster and held one more string per IRI.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.iris = {}
        self.literals = {}
        self.blanks = {}
        self.tokens = {}

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

    def new_iri(self, value: str) -> str:
        """The IRI of the text ``value``, which ``iris`` does not hold yet,
        added to it; ``InvalidIriError`` if :func:`iri_text` refuses it."""
        iri = iri_text(value)
        self.iris[iri] = iri
        return iri

    def new_literal(self, lexical: str, datatype, language) -> tuple:
        """The literal of its parts, which ``literals`` does not hold yet,
        added to it, and its datatype's IRI to ``iris``; ``InvalidIriError``
        or ``InvalidLiteralError`` if the model refuses either."""
        if datatype is not None:
            datatype = self.iris.get(datatype) or self.new_iri(datatype)
        literal = self.literals[lexical, datatype, language] = Literal(lexical, datatype, language)
        return literal

    def new_term(self, token: str, prefixes: dict):
        """The term of a Turtle fast path's token, which ``tokens`` does not
        hold yet, added to it; ``KeyError`` if a prefix is undeclared, else
        the model's own error for an invalid term."""
        if token[0] == '"':
            end = token.index('"', 1)
            datatype = language = None
            if token.startswith("^^", end + 1):
                datatype = token[end + 3:]
                datatype = self.tokens.get(datatype) or self.new_term(datatype, prefixes)
            elif end + 1 < len(token):
                language = token[end + 2:]
            key = (token[1:end], datatype, language)
            term = self.literals.get(key) or self.new_literal(*key)
        elif token == "a":
            term = _A
        else:
            if token[0] == "<":
                value = token[1:-1]
            else:
                prefix, _, local = token.partition(":")
                value = prefixes[prefix] + local
            term = self.iris.get(value) or self.new_iri(value)
        self.tokens[token] = term
        return term

    def iri(self, value: str, at: int) -> str:
        """The IRI of the text ``value``; an invalid one is an error at offset ``at``."""
        try:
            return self.iris.get(value) or self.new_iri(value)
        except InvalidIriError as e:
            raise RdfSyntaxError(str(e), *self.position(at)) from e

    def literal(self, lexical: str, datatype, language, at: int) -> tuple:
        """The literal tuple of its parts; an invalid one is an error at offset ``at``."""
        try:
            return (self.literals.get((lexical, datatype, language))
                    or self.new_literal(lexical, datatype, language))
        except InvalidLiteralError as e:
            raise RdfSyntaxError(str(e), *self.position(at)) from e

    def read_blank(self) -> tuple:
        """The blank node token ``_:label`` at ``pos``; an error at its ``_``
        if the label is bad."""
        m = self.match_re(_BLANK_RE)
        if not m:
            self.error("bad blank node label")
        label = m.group(1)
        node = self.blanks.get(label)
        if node is None:
            node = self.blanks[label] = BlankNode(label)
        return node

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

    def read_iriref(self) -> str:
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
        if self.text.startswith('""', self.pos):  # the third quote of a long string
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


def _read_literal(sc: _Scanner, resolve_pname) -> tuple:
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
        return sc.read_blank()
    sc.error(f"expected IRI or blank node, found {ch!r}")


def _read_statement(sc: _Scanner) -> tuple:
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
    sc.skip_ws_and_comments(newlines=False)
    if sc.peek() not in ("", "\r", "\n"):
        sc.error("expected end of line after '.'")
    return (subject, predicate, obj)


def parse_ntriples(text: str) -> Graph:
    sc = _Scanner(text)
    statement = _NT_STATEMENT_RE.match
    get_iri = sc.iris.get
    get_literal = sc.literals.get
    new_iri = sc.new_iri
    new_literal = sc.new_literal
    triples = []
    append = triples.append
    pos = 0
    while True:
        m = statement(text, pos)
        if m is None:
            # a comment, the end of the text, or a statement for the scanner
            sc.pos = pos
            sc.skip_ws_and_comments()
            if sc.eof():
                break
            m = statement(text, sc.pos)
        if m is not None:
            s, p, o, lexical, datatype, language = m.groups()
            try:
                subject = get_iri(s) or new_iri(s)
                predicate = get_iri(p) or new_iri(p)
                if lexical is None:
                    obj = get_iri(o) or new_iri(o)
                else:
                    obj = (get_literal((lexical, datatype, language))
                           or new_literal(lexical, datatype, language))
            except (InvalidIriError, InvalidLiteralError):
                # a refused term: the scanner reads it, from the subject's "<" on
                sc.pos = m.start(1) - 1
            else:
                append((subject, predicate, obj))
                pos = m.end()
                continue
        append(_read_statement(sc))
        pos = sc.pos
    return Graph(triples)


# ------------------------------------------------------------------ Turtle

_UNSUPPORTED_OPENERS = {
    "[": "anonymous blank node",
    "(": "collection",
}
# the terms the step after each separator reads: an object after ",", a verb
# and object after ";", and a subject, verb and object after "."
_NEXT_STEP = {",": 1, ";": 2, ".": 3}


def parse_turtle(text: str) -> Graph:
    sc = _Scanner(text)
    prefixes: dict = {}
    triples = []
    append = triples.append
    get = sc.tokens.get
    new_term = sc.new_term
    # indexed by the terms a step reads
    fast = (None, _TTL_OBJECT_RE.match, _TTL_VERB_OBJECT_RE.match, _TTL_TRIPLE_RE.match)

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
            return sc.read_blank()
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

    def read_verb() -> str:
        # "a" followed by whitespace, "<", or a comment is the type keyword;
        # "a:x" or "abc:x" are prefixed names
        if sc.peek() == "a":
            nxt = sc.text[sc.pos + 1: sc.pos + 2]
            if nxt == "" or nxt in " \t\r\n<#":
                sc.pos += 1
                return _A
        term = read_term("predicate")
        if term.__class__ is not str:
            sc.error("predicate must be an IRI")
        return term

    def read_directive():
        m = sc.match_re(_KEYWORD_RE)
        word = m.group(0) if m else ""
        # '@prefix' and '@base' are case-sensitive, SPARQL's PREFIX and BASE not
        keyword = word if word.startswith("@") else word.lower()
        if keyword in ("@base", "base"):
            sc.unsupported("@base")
        if keyword not in ("@prefix", "prefix"):
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
        if keyword == "@prefix":  # SPARQL's PREFIX takes no dot
            sc.expect(".")
        prefixes[name] = ns
        # a name read so far may stand for another IRI now
        sc.tokens.clear()

    def scan_step(step, subject, predicate):
        """Read one step at ``sc.pos`` with the scanner; return the next
        step (0 at the end of the text), subject and predicate."""
        sc.skip_ws_and_comments()
        if step == 3:
            if sc.eof():
                return 0, subject, predicate
            ch = sc.peek()
            kw = _KEYWORD_RE.match(sc.text, sc.pos)
            if ch == "@" or (
                kw
                and kw.group(0).lower() in ("prefix", "base")
                and not sc.text.startswith(":", kw.end())
            ):
                read_directive()
                return 3, subject, predicate
            subject = read_term("subject")
            sc.skip_ws_and_comments()
            predicate = read_verb()
            sc.skip_ws_and_comments()
        elif step == 2:
            ch = sc.peek()
            if ch == ";" or ch == ".":  # a repeated or a trailing ";"
                sc.pos += 1
                return _NEXT_STEP[ch], subject, predicate
            predicate = read_verb()
            sc.skip_ws_and_comments()
        append((subject, predicate, read_term("object")))
        sc.skip_ws_and_comments()
        ch = sc.peek()
        if ch == "," or ch == ";":
            sc.pos += 1
            return _NEXT_STEP[ch], subject, predicate
        sc.expect(".")
        return 3, subject, predicate

    step = 3
    subject = predicate = None
    pos = 0
    while True:
        m = fast[step](text, pos)
        if m is not None:
            # the source text of each term, and the separator
            try:
                if step == 2:
                    verb, token, separator = m.groups()
                    predicate = get(verb) or new_term(verb, prefixes)
                elif step == 3:
                    name, verb, token, separator = m.groups()
                    subject = get(name) or new_term(name, prefixes)
                    predicate = get(verb) or new_term(verb, prefixes)
                else:
                    token, separator = m.groups()
                obj = get(token) or new_term(token, prefixes)
            except (KeyError, InvalidIriError, InvalidLiteralError):
                # an undeclared prefix or a refused term: the step is the scanner's
                m = None
        if m is None:
            sc.pos = pos
            step, subject, predicate = scan_step(step, subject, predicate)
            if not step:
                break
            pos = sc.pos
        else:
            append((subject, predicate, obj))
            step = _NEXT_STEP[separator]
            pos = m.end()
    # freed before the graph's own table is built, which is the call's peak
    sc.tokens.clear()
    return Graph(triples, prefixes)


def parse(text: str, format: str = "ntriples") -> Graph:
    """Parse ``text`` in the named format into a :class:`Graph`."""
    if format == "ntriples":
        return parse_ntriples(text)
    if format == "turtle":
        return parse_turtle(text)
    raise UnknownFormatError(format)
