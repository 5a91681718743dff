"""The microscopy metadata ontology.

Eleven classes carried over from the OME data model plus seven extensions
covering electron microscopy and biosample context, organised into five
categories.  :func:`build_core_ontology` builds the registry once, under
the fixed vocabulary namespace ``ONTOLOGY_NS``; it is immutable, and
:func:`registry_to_graph` renders it as RDF/OWL.

The same :class:`OntologyRegistry` container also holds translator-built
fragments.  The rows below, which only :func:`build_core_ontology` reads,
are the one source of the core's categories, required values, value ranges
and value bounds.  The XSD translator reads the registry it returns; the
OME-XML and sidecar readers and the instance mapper read it once, at import.
Every IRI a registry holds but its ``namespace`` is an exact ``str`` from
:func:`~ome_rdf.rdf.model.iri_text`, the object a graph holds for its text.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from decimal import Decimal
from functools import cache
from typing import Optional

from .errors import ClassNotFoundError
from .namespaces import (
    ONTOLOGY_NS,
    OWL_CLASS,
    OWL_DATATYPE_PROPERTY,
    OWL_NS,
    OWL_OBJECT_PROPERTY,
    OWL_ONTOLOGY,
    RDF_LANGSTRING,
    RDF_NS,
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_LABEL,
    RDFS_NS,
    RDFS_RANGE,
    RDFS_SUBCLASSOF,
    XSD_DATETIME,
    XSD_DECIMAL,
    XSD_INTEGER,
    XSD_NS,
    XSD_STRING,
)
from .rdf import Graph, Iri, Literal, Triple
from .rdf.model import XSD_DATATYPES, iri_text


class Category(enum.Enum):
    IMAGE = "IMAGE"
    EXPERIMENTER = "EXPERIMENTER"
    INSTRUMENT = "INSTRUMENT"
    BIOSAMPLE = "BIOSAMPLE"
    SCREENING = "SCREENING"


class Origin(enum.Enum):
    TRANSLATED = "translated"
    EXTENDED = "extended"


@dataclass(frozen=True)
class OntologyClass:
    iri: str
    label: str
    category: Category
    origin: Origin
    superclass: Optional[str] = None

    def __post_init__(self):
        if not self.label:
            raise ValueError("class label must be non-empty")


@dataclass(frozen=True)
class PropertyDef:
    """A property with domain, range, and occurrence/value constraints.

    ``range`` may be a class IRI (object property) or an XSD datatype IRI
    (datatype property); ``max_count=None`` means unbounded.  The value
    bounds are ``Decimal`` whatever the range, so an ``xsd:integer``
    property's ``min_exclusive`` of 0 reads as ``>= 1``.
    """

    iri: str
    label: str
    domain: str
    range: str
    min_count: int = 0
    max_count: Optional[int] = None
    min_exclusive: Optional[Decimal] = None
    max_inclusive: Optional[Decimal] = None

    def __post_init__(self):
        if not self.label:
            raise ValueError("property label must be non-empty")
        if self.min_count < 0:
            raise ValueError("min_count must be non-negative")
        if self.max_count is not None and self.max_count < max(1, self.min_count):
            raise ValueError("max_count must be positive and >= min_count")

    @property
    def is_datatype(self) -> bool:
        return self.range.startswith(XSD_NS) or self.range == RDF_LANGSTRING


@dataclass(frozen=True)
class ConditionalCardinality:
    """Cardinality that applies only when the subject links to a trigger.

    Reads: every instance of ``subject_class`` that is connected through
    ``via_property`` to an instance of ``trigger_class`` must carry between
    ``min_count`` and ``max_count`` values of ``property``.
    """

    subject_class: str
    via_property: str
    trigger_class: str
    property: str
    min_count: int
    max_count: Optional[int]


@dataclass(frozen=True)
class OntologyRegistry:
    namespace: Iri
    classes: tuple
    properties: tuple
    conditional_rules: tuple = ()

    def __post_init__(self):
        by_iri, by_label = {}, {}
        for c in self.classes:
            if c.iri in by_iri:
                raise ValueError(f"duplicate class IRI {c.iri}")
            if not c.iri.startswith(self.namespace):
                raise ValueError(f"class {c.iri} outside namespace {self.namespace}")
            by_iri[c.iri] = c
            by_label.setdefault(c.label, c)
        for c in self.classes:
            if c.superclass is not None and c.superclass not in by_iri:
                raise ValueError(f"superclass {c.superclass} of {c.iri} not registered")
        p_by_iri, p_by_label = {}, {}
        for p in self.properties:
            if p.iri in p_by_iri or p.iri in by_iri:
                raise ValueError(f"duplicate IRI {p.iri}")
            if p.domain not in by_iri:
                raise ValueError(f"domain {p.domain} of {p.iri} not registered")
            if p.range.startswith(self.namespace) and p.range not in by_iri or (
                    p.range.startswith(XSD_NS) and p.range not in XSD_DATATYPES):
                raise ValueError(f"range {p.range} of {p.iri} not registered")
            p_by_iri[p.iri] = p
            p_by_label.setdefault(p.label, p)
        # the lookup indexes are attributes, not fields, so no caller passes them
        object.__setattr__(self, "_class_by_iri", by_iri)
        object.__setattr__(self, "_class_by_label", by_label)
        object.__setattr__(self, "_property_by_iri", p_by_iri)
        object.__setattr__(self, "_property_by_label", p_by_label)

    # ---- lookups

    def lookup_class(self, iri: str) -> OntologyClass:
        try:
            return self._class_by_iri[iri]
        except KeyError:
            raise ClassNotFoundError(iri) from None

    def class_by_label(self, label: str) -> Optional[OntologyClass]:
        return self._class_by_label.get(label)

    def lookup_property(self, iri: str) -> Optional[PropertyDef]:
        return self._property_by_iri.get(iri)

    def property_by_label(self, label: str) -> Optional[PropertyDef]:
        return self._property_by_label.get(label)

    def upper_level_classes(self) -> tuple:
        return tuple(c for c in self.classes if c.superclass is None)


_TRANSLATED = [
    # label, category
    ("Image", Category.IMAGE),
    ("ROI", Category.IMAGE),
    ("Experimenter", Category.EXPERIMENTER),
    ("ExperimenterGroup", Category.EXPERIMENTER),
    ("Instrument", Category.INSTRUMENT),
    ("Detector", Category.INSTRUMENT),
    ("Objective", Category.INSTRUMENT),
    ("LightSource", Category.INSTRUMENT),
    ("Filter", Category.INSTRUMENT),
    ("Screen", Category.SCREENING),
    ("Plate", Category.SCREENING),
]

_EXTENDED = [
    ("BioSample", Category.BIOSAMPLE),
    ("Bioresource", Category.BIOSAMPLE),
    ("SampleContainer", Category.BIOSAMPLE),
    ("SamplePreparation", Category.BIOSAMPLE),
    ("PhenotypeData", Category.BIOSAMPLE),
    ("ImagingCondition", Category.INSTRUMENT),
    ("ElectronMicroscope", Category.INSTRUMENT),
]

# label, domain label, range (class label or xsd iri), min_count, max_count, bounds
_PROPERTIES = [
    ("name", "Image", XSD_STRING, 1, 1, None, None),
    ("acquisitionDate", "Image", XSD_DATETIME, 0, 1, None, None),
    ("sizeX", "Image", XSD_INTEGER, 1, 1, Decimal("0"), None),
    ("sizeY", "Image", XSD_INTEGER, 1, 1, Decimal("0"), None),
    ("sizeZ", "Image", XSD_INTEGER, 1, 1, Decimal("0"), None),
    ("sizeC", "Image", XSD_INTEGER, 1, 1, Decimal("0"), None),
    ("sizeT", "Image", XSD_INTEGER, 1, 1, Decimal("0"), None),
    ("physicalSizeX", "Image", XSD_DECIMAL, 0, 1, Decimal("0"), None),
    ("physicalSizeY", "Image", XSD_DECIMAL, 0, 1, Decimal("0"), None),
    ("acquiredBy", "Image", "Experimenter", 0, 1, None, None),
    ("acquiredWith", "Image", "Instrument", 0, 1, None, None),
    ("depicts", "Image", "BioSample", 0, None, None, None),
    ("hasImagingCondition", "Image", "ImagingCondition", 0, None, None, None),
    ("hasObservation", "Image", "PhenotypeData", 0, None, None, None),
    ("containedIn", "BioSample", "SampleContainer", 0, None, None, None),
    ("derivedFrom", "BioSample", "Bioresource", 0, None, None, None),
    ("preparedBy", "BioSample", "SamplePreparation", 0, None, None, None),
    # acceleration voltage in kilovolts; SEM/TEM hardware tops out at 1 MV
    ("accelerationVoltage", "ImagingCondition", XSD_DECIMAL, 0, 1, Decimal("0"), Decimal("1000")),
    ("electronGunType", "ImagingCondition", XSD_STRING, 0, 1, None, None),
    # electron wavelength in picometres
    ("electronWavelength", "ImagingCondition", XSD_DECIMAL, 0, 1, Decimal("0"), None),
    ("stainingMethod", "SamplePreparation", XSD_STRING, 0, 1, None, None),
    ("description", "PhenotypeData", XSD_STRING, 0, 1, None, None),
    ("model", "Instrument", XSD_STRING, 0, 1, None, None),
    ("fullName", "Experimenter", XSD_STRING, 1, 1, None, None),
    ("email", "Experimenter", XSD_STRING, 0, 1, None, None),
]


@cache
def build_core_ontology() -> OntologyRegistry:
    """The fixed registry: 18 upper-level classes (11 translated from the
    OME model, 7 extensions), 5 categories, and the property set used by
    the instance mapper, under :data:`~ome_rdf.namespaces.ONTOLOGY_NS`.
    Every call returns the same registry.

    ``conditional_rules`` declares that an Image acquired with an
    ``ElectronMicroscope`` carries exactly one ``hasImagingCondition``;
    nothing enforces that rule yet.
    """
    classes = [
        OntologyClass(iri_text(ONTOLOGY_NS + label), label, cat, origin)
        for rows, origin in ((_TRANSLATED, Origin.TRANSLATED), (_EXTENDED, Origin.EXTENDED))
        for label, cat in rows
    ]
    properties = [
        # a range is a class label or a datatype IRI
        PropertyDef(iri_text(ONTOLOGY_NS + label), label, iri_text(ONTOLOGY_NS + domain),
                    iri_text(rng if ":" in rng else ONTOLOGY_NS + rng),
                    min_count, max_count, lo, hi)
        for label, domain, rng, min_count, max_count, lo, hi in _PROPERTIES
    ]
    rules = (
        ConditionalCardinality(
            subject_class=iri_text(ONTOLOGY_NS + "Image"),
            via_property=iri_text(ONTOLOGY_NS + "acquiredWith"),
            trigger_class=iri_text(ONTOLOGY_NS + "ElectronMicroscope"),
            property=iri_text(ONTOLOGY_NS + "hasImagingCondition"),
            min_count=1,
            max_count=1,
        ),
    )
    return OntologyRegistry(Iri(ONTOLOGY_NS), tuple(classes), tuple(properties), rules)


def annotation_iri(registry: OntologyRegistry, name: str) -> str:
    """IRI of one of the registry's own annotation predicates
    (category, origin, minCount, maxCount, minExclusive, maxInclusive)."""
    return iri_text(registry.namespace + name)


def ontology_node(registry: OntologyRegistry) -> str:
    return iri_text(registry.namespace.rstrip("#/"))


def registry_to_graph(registry: OntologyRegistry) -> Graph:
    """Render the registry as RDF/OWL.

    Emits, per class: one ``owl:Class`` declaration, a label, one category
    annotation, one origin annotation, and a subclass link when present.
    Per property: a type declaration, label, domain, range, and annotation
    triples for any non-default cardinality or value bound.  Two header
    triples identify the ontology itself.
    """
    onto = ontology_node(registry)
    cat_p = annotation_iri(registry, "category")
    origin_p = annotation_iri(registry, "origin")
    triples = [
        Triple(onto, RDF_TYPE, OWL_ONTOLOGY),
        Triple(onto, RDFS_LABEL, Literal("Microscopy metadata ontology")),
    ]
    for c in registry.classes:
        triples.append(Triple(c.iri, RDF_TYPE, OWL_CLASS))
        triples.append(Triple(c.iri, RDFS_LABEL, Literal(c.label)))
        triples.append(Triple(c.iri, cat_p, Literal(c.category.value)))
        triples.append(Triple(c.iri, origin_p, Literal(c.origin.value)))
        if c.superclass is not None:
            triples.append(Triple(c.iri, RDFS_SUBCLASSOF, c.superclass))
    for p in registry.properties:
        kind = OWL_DATATYPE_PROPERTY if p.is_datatype else OWL_OBJECT_PROPERTY
        triples.append(Triple(p.iri, RDF_TYPE, kind))
        triples.append(Triple(p.iri, RDFS_LABEL, Literal(p.label)))
        triples.append(Triple(p.iri, RDFS_DOMAIN, p.domain))
        triples.append(Triple(p.iri, RDFS_RANGE, p.range))
        if p.min_count > 0:
            triples.append(Triple(p.iri, annotation_iri(registry, "minCount"),
                                  Literal(str(p.min_count), XSD_INTEGER)))
        if p.max_count is not None:
            triples.append(Triple(p.iri, annotation_iri(registry, "maxCount"),
                                  Literal(str(p.max_count), XSD_INTEGER)))
        if p.min_exclusive is not None:
            triples.append(Triple(p.iri, annotation_iri(registry, "minExclusive"),
                                  Literal(format(p.min_exclusive, "f"), XSD_DECIMAL)))
        if p.max_inclusive is not None:
            triples.append(Triple(p.iri, annotation_iri(registry, "maxInclusive"),
                                  Literal(format(p.max_inclusive, "f"), XSD_DECIMAL)))
    prefixes = {
        "mo": registry.namespace,
        "owl": OWL_NS,
        "rdf": RDF_NS,
        "rdfs": RDFS_NS,
        "xsd": XSD_NS,
    }
    return Graph(triples, prefixes)
