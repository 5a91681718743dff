"""Resolution of external bioresource identifiers (CURIEs) to IRIs.

The registry is a plain-text TSV config, one ``prefix<TAB>baseIri<TAB>
idPattern`` line per partner database; the default ships with the RIKEN
BioResource mouse-strain catalogue.  A leading byte-order mark is ignored,
and an id pattern that does not compile raises :class:`LinkRegistryError`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources

from .errors import (
    IdPatternMismatchError,
    LinkRegistryError,
    MalformedCurieError,
    UnknownPrefixError,
)
from .rdf import Iri

_PREFIX_RE = re.compile(r"[a-z][a-z0-9_]*")


@dataclass(frozen=True)
class LinkEntry:
    prefix: str
    base_iri: Iri
    id_pattern: str
    id_regex: re.Pattern = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not _PREFIX_RE.fullmatch(self.prefix):
            raise LinkRegistryError(f"bad prefix {self.prefix!r}")
        try:
            regex = re.compile(self.id_pattern)
        # deep nesting exhausts the compiler's recursion; a huge repeat overflows
        except (re.error, RecursionError, OverflowError) as e:
            raise LinkRegistryError(f"bad id pattern for {self.prefix!r}: {e}") from e
        object.__setattr__(self, "id_regex", regex)


class LinkRegistry:
    """Ordered, immutable prefix-to-namespace table."""

    def __init__(self, entries):
        self._entries = {}
        for entry in entries:
            if entry.prefix in self._entries:
                raise LinkRegistryError(f"duplicate prefix {entry.prefix!r}")
            self._entries[entry.prefix] = entry

    def resolve(self, curie: str) -> Iri:
        """Expand ``prefix:localId`` to ``baseIri + "/" + localId``."""
        if ":" not in curie:
            raise MalformedCurieError(f"{curie!r} has no prefix separator")
        prefix, local = curie.split(":", 1)
        if not prefix or not local:
            raise MalformedCurieError(f"{curie!r} has an empty prefix or local id")
        entry = self._entries.get(prefix)
        if entry is None:
            raise UnknownPrefixError(prefix)
        if not entry.id_regex.fullmatch(local):
            raise IdPatternMismatchError(curie, entry.id_pattern)
        return Iri(entry.base_iri.value + "/" + local)

    # ---- file format

    @classmethod
    def loads(cls, text: str) -> "LinkRegistry":
        text = text.lstrip("\ufeff")
        # lines end at CRLF, CR or LF only; U+0085, U+2028 and the like stay
        # in their cell
        lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
        if lines[-1] == "":
            lines.pop()  # the final line end
        entries = []
        for lineno, line in enumerate(lines, start=1):
            cells = line.split("\t")
            if len(cells) != 3:
                raise LinkRegistryError(
                    f"line {lineno}: expected prefix<TAB>baseIri<TAB>idPattern")
            entries.append(LinkEntry(cells[0], Iri(cells[1]), cells[2]))
        return cls(entries)

    @classmethod
    def load(cls, path) -> "LinkRegistry":
        with open(path, encoding="utf-8") as fh:
            return cls.loads(fh.read())

    @classmethod
    def default(cls) -> "LinkRegistry":
        text = resources.files("ome_rdf").joinpath("data/link_registry.tsv").read_text(
            encoding="utf-8")
        return cls.loads(text)
