"""Resolution of external bioresource identifiers (CURIEs) to IRIs.

The registry is a plain-text TSV config, one ``prefix<TAB>baseIri<TAB>
idPattern`` line per partner database; the default ships with the RIKEN
BioResource mouse-strain catalogue.  A leading byte-order mark is ignored;
a file that is not UTF-8 raises :class:`LinkRegistryError`, and so does a
faulty line (wrong cell count, bad prefix, base IRI or id pattern, or a
repeated prefix), with a message that starts ``line N:``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources

from .errors import (
    IdPatternMismatchError,
    InvalidIriError,
    LinkRegistryError,
    MalformedCurieError,
    UnknownPrefixError,
)
from .rdf import Iri

PREFIX_RE = re.compile(r"[a-z][a-z0-9_]*")


def tsv_lines(text: str) -> list:
    """The lines of a TSV text, after any leading byte-order mark.  Lines
    end at CRLF, CR or LF only: U+0085, U+2028 and the like stay in their
    cell."""
    return text.lstrip("\ufeff").replace("\r\n", "\n").replace("\r", "\n").split("\n")


@dataclass(frozen=True)
class LinkEntry:
    prefix: str
    base_iri: Iri
    id_pattern: str
    id_regex: re.Pattern = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not PREFIX_RE.fullmatch(self.prefix):
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
            self._add(entry)

    def _add(self, entry: LinkEntry) -> None:
        if entry.prefix in self._entries:
            raise LinkRegistryError(f"duplicate prefix {entry.prefix!r}")
        self._entries[entry.prefix] = entry

    def resolve(self, curie: str) -> Iri:
        """Expand ``prefix:localId`` to ``baseIri + "/" + localId``.  A local
        id that matches its pattern but gives no valid IRI raises
        :class:`MalformedCurieError`."""
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
        try:
            return Iri(entry.base_iri.value + "/" + local)
        except InvalidIriError as e:
            raise MalformedCurieError(f"{curie!r} does not give a valid IRI: {e}") from e

    # ---- file format

    @classmethod
    def loads(cls, text: str) -> "LinkRegistry":
        lines = tsv_lines(text)
        if lines[-1] == "":
            lines.pop()  # the final line end
        registry = cls(())
        for lineno, line in enumerate(lines, start=1):
            cells = line.split("\t")
            if len(cells) != 3:
                raise LinkRegistryError(
                    f"line {lineno}: expected prefix<TAB>baseIri<TAB>idPattern")
            try:
                registry._add(LinkEntry(cells[0], Iri(cells[1]), cells[2]))
            except (InvalidIriError, LinkRegistryError) as e:
                raise LinkRegistryError(f"line {lineno}: {e}") from e
        return registry

    @classmethod
    def load(cls, path) -> "LinkRegistry":
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as e:
            raise LinkRegistryError(f"{path} is not UTF-8 text: {e}") from e
        return cls.loads(text)

    @classmethod
    def default(cls) -> "LinkRegistry":
        text = resources.files("ome_rdf").joinpath("data/link_registry.tsv").read_text(
            encoding="utf-8")
        return cls.loads(text)
