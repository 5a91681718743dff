"""XML-schema-subset to ontology-fragment translation.

Reads a constrained slice of XSD (named complexTypes with sequences,
elements, attributes, occurrence bounds, and single-level extensions),
extracts class and property candidates, and mints them into an
:class:`OntologyRegistry` fragment for inspection.  The
shipped core ontology is hand-curated; this module exists to reproduce
and audit the translation step, so unsupported schema constructs degrade
to warnings instead of failures.
The schema is read by the OME-XML reader's rules: its text by
:func:`ome_rdf.ome_xml.read_xml`, an occurrence bound as an integer >= 0 by
:func:`ome_rdf.ome_xml.ascii_integer`.  A bad bound reads as 1, and a
maxOccurs below max(1, minOccurs) as that floor, each with a warning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import EmptySchemaError, MalformedXmlError, NameCollisionError
from .namespaces import XSD_NS, XSD_STRING
from .ome_xml import ascii_integer, local_name, read_xml
from .ontology import (
    Category,
    OntologyClass,
    OntologyRegistry,
    Origin,
    PropertyDef,
    build_core_ontology,
)
from .rdf import Iri
from .rdf.model import XSD_DATATYPES

_SKIPPED_SILENTLY = {"annotation", "documentation", "unique", "key", "keyref"}


@dataclass(frozen=True)
class XsdElement:
    name: str
    type_ref: str
    min_occurs: int
    max_occurs: Optional[int]  # None = unbounded


@dataclass(frozen=True)
class XsdAttribute:
    name: str
    datatype_ref: str
    required: bool


@dataclass(frozen=True)
class XsdComplexType:
    name: str
    elements: tuple
    attributes: tuple


@dataclass(frozen=True)
class XsdSubsetModel:
    complex_types: tuple
    warnings: tuple  # (path, reason) pairs for skipped constructs

    def type_names(self):
        return {ct.name for ct in self.complex_types}


def _strip_prefix(ref: str) -> str:
    return ref.rsplit(":", 1)[-1]


@dataclass
class _RawType:
    name: str
    path: str
    extension_base: Optional[str] = None
    elements: list = field(default_factory=list)
    attributes: list = field(default_factory=list)


def _bound(el, attr: str, path: str, warnings: list) -> int:
    raw = el.get(attr, "1")
    try:
        if (value := ascii_integer(raw)) >= 0:
            return value
    except ValueError:
        pass
    warnings.append((path, f"bad {attr} {raw!r}"))
    return 1


def _occurs(el, path, warnings) -> tuple:
    lo = _bound(el, "minOccurs", path, warnings)
    hi = None if el.get("maxOccurs") == "unbounded" else _bound(el, "maxOccurs", path, warnings)
    if hi is not None and hi < max(1, lo):
        warnings.append((path, f"maxOccurs {hi} is below max(1, minOccurs {lo})"))
        hi = max(1, lo)
    return lo, hi


def _parse_members(node, raw: _RawType, path: str, warnings: list):
    for child in node:
        tag = local_name(child.tag)
        if tag in _SKIPPED_SILENTLY:
            continue
        if tag == "attribute":
            name = child.get("name")
            if not name:
                warnings.append((f"{path}/attribute", "attribute without a name"))
                continue
            raw.attributes.append(
                XsdAttribute(name, _strip_prefix(child.get("type", "xs:string")),
                             child.get("use") == "required")
            )
        elif tag == "sequence":
            for el in child:
                etag = local_name(el.tag)
                epath = f"{path}/sequence/{etag}"
                if etag in _SKIPPED_SILENTLY:
                    continue
                if etag != "element":
                    warnings.append((epath, f"{etag} inside sequence is not supported"))
                    continue
                name = el.get("name")
                if not name:
                    warnings.append((epath, "element without a name (ref?)"))
                    continue
                type_ref = el.get("type")
                if not type_ref:
                    warnings.append(
                        (f"{path}/sequence/element[{name}]", "anonymous element type"))
                    continue
                lo, hi = _occurs(el, f"{path}/sequence/element[{name}]", warnings)
                raw.elements.append(XsdElement(name, _strip_prefix(type_ref), lo, hi))
        elif tag in ("complexContent", "simpleContent"):
            for inner in child:
                itag = local_name(inner.tag)
                if itag == "extension":
                    base = inner.get("base")
                    if raw.extension_base is not None or not base:
                        warnings.append((f"{path}/{tag}/extension", "unusable extension"))
                        continue
                    raw.extension_base = _strip_prefix(base)
                    _parse_members(inner, raw, f"{path}/{tag}/extension", warnings)
                elif itag not in _SKIPPED_SILENTLY:
                    warnings.append(
                        (f"{path}/{tag}/{itag}", f"{itag} is not supported"))
        else:
            warnings.append((f"{path}/{tag}", f"{tag} is not supported"))


def parse_xsd_subset(text: str) -> XsdSubsetModel:
    """Parse the supported XSD subset into a model.

    Unsupported constructs (choice, groups, extension chains deeper than
    one, anonymous types) are recorded as warnings and skipped.  Raises
    :class:`MalformedXmlError` for broken XML and :class:`EmptySchemaError`
    for schemas without any named complexType.
    """
    root = read_xml(text, "schema")
    warnings: list = []
    raw_types: dict = {}
    for child in root:
        tag = local_name(child.tag)
        if tag in _SKIPPED_SILENTLY:
            continue
        if tag != "complexType":
            warnings.append((f"/schema/{tag}", f"top-level {tag} is not supported"))
            continue
        name = child.get("name")
        if not name:
            warnings.append(("/schema/complexType", "anonymous top-level complexType"))
            continue
        if name in raw_types:
            raise MalformedXmlError(f"duplicate complexType name {name!r}")
        raw = _RawType(name, f"/schema/complexType[{name}]")
        _parse_members(child, raw, raw.path, warnings)
        raw_types[name] = raw

    if not raw_types:
        raise EmptySchemaError("schema declares no named complexType")

    resolved = []
    for raw in raw_types.values():
        elements = {e.name: e for e in raw.elements}
        attributes = {a.name: a for a in raw.attributes}
        base_name = raw.extension_base
        if base_name is not None:
            base = raw_types.get(base_name)
            if base is None:
                warnings.append((raw.path, f"extension base {base_name!r} not found"))
            elif base.extension_base is not None:
                warnings.append((raw.path, "extension chain deeper than one"))
            else:
                elements = {e.name: e for e in base.elements} | elements
                attributes = {a.name: a for a in base.attributes} | attributes
        resolved.append(
            XsdComplexType(raw.name, tuple(elements.values()), tuple(attributes.values()))
        )
    return XsdSubsetModel(tuple(resolved), tuple(warnings))


@dataclass(frozen=True)
class CandidateConcept:
    kind: str  # class | objectProperty | datatypeProperty
    name: str
    source_path: str
    domain_name: Optional[str] = None
    range_name: Optional[str] = None
    min_count: int = 0
    max_count: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("class", "objectProperty", "datatypeProperty"):
            raise ValueError(f"bad concept kind {self.kind!r}")
        if self.kind != "class" and not self.domain_name:
            raise ValueError("properties need a domain")


def lower_camel(name: str) -> str:
    if name.isupper():
        return name.lower()
    return name[:1].lower() + name[1:]


def extract_concepts(model: XsdSubsetModel) -> list:
    """Derive candidate classes and properties from the model.

    One class per complexType; ``has<Element>`` object properties for
    elements typed by another complexType; lower-camel datatype properties
    for attributes and simple-typed elements.  Output is sorted by
    (kind, name, source path) so declaration order never shows through.
    """
    type_names = model.type_names()
    out = []
    for ct in model.complex_types:
        ct_path = f"/schema/complexType[{ct.name}]"
        out.append(CandidateConcept("class", ct.name, ct_path))
        for el in ct.elements:
            el_path = f"{ct_path}/sequence/element[{el.name}]"
            if el.type_ref in type_names:
                out.append(CandidateConcept(
                    "objectProperty", f"has{el.name}", el_path,
                    domain_name=ct.name, range_name=el.type_ref,
                    min_count=el.min_occurs, max_count=el.max_occurs))
            else:
                out.append(CandidateConcept(
                    "datatypeProperty", lower_camel(el.name), el_path,
                    domain_name=ct.name, range_name=el.type_ref,
                    min_count=el.min_occurs, max_count=el.max_occurs))
        for attr in ct.attributes:
            out.append(CandidateConcept(
                "datatypeProperty", lower_camel(attr.name),
                f"{ct_path}/attribute[{attr.name}]",
                domain_name=ct.name, range_name=attr.datatype_ref,
                min_count=1 if attr.required else 0, max_count=1))
    out.sort(key=lambda c: (c.kind, c.name, c.source_path))
    return out


def _datatype_iri(ref: Optional[str]) -> Iri:
    # an XSD datatype the RDF model knows passes through as a range
    if ref and XSD_NS + ref in XSD_DATATYPES:
        return Iri(XSD_NS + ref)
    return Iri(XSD_STRING)


def concepts_to_registry_fragment(concepts, namespace) -> OntologyRegistry:
    """Mint candidates under ``namespace`` into a registry fragment.

    Duplicate names collapse to their first (sorted) occurrence; a name
    claimed as both class and property raises
    :class:`NameCollisionError`.  A class whose name is the label of one of
    the core ontology's translated classes takes that class's category;
    every other class falls in ``Category.IMAGE``.
    """
    ns = Iri(namespace)
    categories = {c.label: c.category for c in build_core_ontology().classes
                  if c.origin is Origin.TRANSLATED}
    classes: dict = {}
    properties: dict = {}
    ordered = sorted(concepts, key=lambda c: (c.kind, c.name, c.source_path))
    for c in ordered:
        if c.kind == "class":
            iri = Iri(ns.value + c.name)
            classes.setdefault(iri, OntologyClass(
                iri, c.name, categories.get(c.name, Category.IMAGE),
                Origin.TRANSLATED))
    for c in ordered:
        if c.kind == "class":
            continue
        iri = Iri(ns.value + c.name)
        if iri in classes:
            raise NameCollisionError(f"{c.name!r} already minted as a class")
        if iri in properties:
            continue
        if c.kind == "objectProperty":
            range_iri = Iri(ns.value + c.range_name)
        else:
            range_iri = _datatype_iri(c.range_name)
        properties[iri] = PropertyDef(
            iri, c.name, Iri(ns.value + c.domain_name), range_iri,
            min_count=c.min_count, max_count=c.max_count)
    return OntologyRegistry(ns, tuple(classes.values()), tuple(properties.values()))
