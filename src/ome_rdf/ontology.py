"""The microscopy metadata ontology.

Eleven classes carried over from the OME data model plus seven extensions
covering electron microscopy and biosample context, organised into five
categories.  :func:`build_core_ontology` builds the registry once, under
the fixed vocabulary namespace ``ONTOLOGY_NS``; it is immutable, and
:func:`registry_to_graph` renders it as RDF/OWL.

The same :class:`OntologyRegistry` container also holds translator-built
fragments.  The rows below are the one source of the core's categories,
value ranges and value bounds, and only :func:`build_core_ontology` reads
them: the XSD translator and the OME-XML and sidecar readers read the
registry it returns.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
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
    iri: Iri
    label: str
    category: Category
    origin: Origin
    superclass: Optional[Iri] = None

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

    iri: Iri
    label: str
    domain: Iri
    range: Iri
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
        return self.range.value.startswith(XSD_NS) or self.range.value == RDF_LANGSTRING


@dataclass(frozen=True)
class ConditionalCardinality:
    """Cardinality that applies only when the subject links to a trigger.

    Reads: every instance of ``subject_class`` that is connected through
    ``via_property`` to an instance of ``trigger_class`` must carry between
    ``min_count`` and ``max_count`` values of ``property``.
    """

    subject_class: Iri
    via_property: Iri
    trigger_class: Iri
    property: Iri
    min_count: int
    max_count: Optional[int]


@dataclass(frozen=True)
class OntologyRegistry:
    namespace: Iri
    classes: tuple
    properties: tuple
    conditional_rules: tuple = ()
    _class_by_iri: dict = field(default=None, repr=False, compare=False)  # type: ignore[assignment]
    _class_by_label: dict = field(default=None, repr=False, compare=False)  # type: ignore[assignment]
    _property_by_iri: dict = field(default=None, repr=False, compare=False)  # type: ignore[assignment]
    _property_by_label: dict = field(default=None, repr=False, compare=False)  # type: ignore[assignment]

    def __post_init__(self):
        by_iri, by_label = {}, {}
        for c in self.classes:
            if c.iri in by_iri:
                raise ValueError(f"duplicate class IRI {c.iri}")
            if not c.iri.value.startswith(self.namespace.value):
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
            p_by_iri[p.iri] = p
            p_by_label.setdefault(p.label, p)
        object.__setattr__(self, "_class_by_iri", by_iri)
        object.__setattr__(self, "_class_by_label", by_label)
        object.__setattr__(self, "_property_by_iri", p_by_iri)
        object.__setattr__(self, "_property_by_label", p_by_label)

    # ---- lookups

    def lookup_class(self, iri: Iri) -> OntologyClass:
        try:
            return self._class_by_iri[iri]
        except KeyError:
            raise ClassNotFoundError(iri) from None

    def class_by_label(self, label: str) -> Optional[OntologyClass]:
        return self._class_by_label.get(label)

    def lookup_property(self, iri: Iri) -> Optional[PropertyDef]:
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

# label, domain label, range (class label or xsd iri), max_count, bounds
_PROPERTIES = [
    ("name", "Image", XSD_STRING, 1, None, None),
    ("acquisitionDate", "Image", XSD_DATETIME, 1, None, None),
    ("sizeX", "Image", XSD_INTEGER, 1, Decimal("0"), None),
    ("sizeY", "Image", XSD_INTEGER, 1, Decimal("0"), None),
    ("sizeZ", "Image", XSD_INTEGER, 1, Decimal("0"), None),
    ("sizeC", "Image", XSD_INTEGER, 1, Decimal("0"), None),
    ("sizeT", "Image", XSD_INTEGER, 1, Decimal("0"), None),
    ("physicalSizeX", "Image", XSD_DECIMAL, 1, Decimal("0"), None),
    ("physicalSizeY", "Image", XSD_DECIMAL, 1, Decimal("0"), None),
    ("acquiredBy", "Image", "Experimenter", None, None, None),
    ("acquiredWith", "Image", "Instrument", None, None, None),
    ("depicts", "Image", "BioSample", None, None, None),
    ("hasImagingCondition", "Image", "ImagingCondition", None, None, None),
    ("hasObservation", "Image", "PhenotypeData", None, None, None),
    ("containedIn", "BioSample", "SampleContainer", None, None, None),
    ("derivedFrom", "BioSample", "Bioresource", None, None, None),
    ("preparedBy", "BioSample", "SamplePreparation", None, None, None),
    # acceleration voltage in kilovolts; SEM/TEM hardware tops out at 1 MV
    ("accelerationVoltage", "ImagingCondition", XSD_DECIMAL, 1, Decimal("0"), Decimal("1000")),
    ("electronGunType", "ImagingCondition", XSD_STRING, 1, None, None),
    # electron wavelength in picometres
    ("electronWavelength", "ImagingCondition", XSD_DECIMAL, 1, Decimal("0"), None),
    ("stainingMethod", "SamplePreparation", XSD_STRING, 1, None, None),
    ("description", "PhenotypeData", XSD_STRING, 1, None, None),
    ("model", "Instrument", XSD_STRING, 1, None, None),
    ("fullName", "Experimenter", XSD_STRING, 1, None, None),
    ("email", "Experimenter", XSD_STRING, 1, None, None),
]


@cache
def build_core_ontology() -> OntologyRegistry:
    """The fixed registry: 18 upper-level classes (11 translated from the
    OME model, 7 extensions), 5 categories, and the property set used by
    the instance mapper, under :data:`~ome_rdf.namespaces.ONTOLOGY_NS`.
    Every call returns the same registry.

    No row sets a ``min_count``, but the OME-XML reader requires Image
    ``Name``, ``SizeX`` to ``SizeT`` and Experimenter ``Name``.
    ``conditional_rules`` declares that an Image acquired with an
    ``ElectronMicroscope`` carries exactly one ``hasImagingCondition``;
    nothing enforces that rule yet.
    """
    classes = [
        OntologyClass(Iri(ONTOLOGY_NS + label), label, cat, Origin.TRANSLATED)
        for label, cat in _TRANSLATED
    ] + [
        OntologyClass(Iri(ONTOLOGY_NS + label), label, cat, Origin.EXTENDED)
        for label, cat in _EXTENDED
    ]
    properties = [
        # a range is a class label or a datatype IRI
        PropertyDef(Iri(ONTOLOGY_NS + label), label, Iri(ONTOLOGY_NS + domain),
                    Iri(rng if ":" in rng else ONTOLOGY_NS + rng),
                    max_count=max_count, min_exclusive=lo, max_inclusive=hi)
        for label, domain, rng, max_count, lo, hi in _PROPERTIES
    ]
    rules = (
        ConditionalCardinality(
            subject_class=Iri(ONTOLOGY_NS + "Image"),
            via_property=Iri(ONTOLOGY_NS + "acquiredWith"),
            trigger_class=Iri(ONTOLOGY_NS + "ElectronMicroscope"),
            property=Iri(ONTOLOGY_NS + "hasImagingCondition"),
            min_count=1,
            max_count=1,
        ),
    )
    return OntologyRegistry(Iri(ONTOLOGY_NS), tuple(classes), tuple(properties), rules)


def annotation_iri(registry: OntologyRegistry, name: str) -> Iri:
    """IRI of one of the registry's own annotation predicates
    (category, origin, minCount, maxCount, minExclusive, maxInclusive)."""
    return Iri(registry.namespace.value + name)


def ontology_node(registry: OntologyRegistry) -> Iri:
    return Iri(registry.namespace.value.rstrip("#/"))


def registry_to_graph(registry: OntologyRegistry) -> Graph:
    """Render the registry as RDF/OWL.

    Emits, per class: one ``owl:Class`` declaration, a label, one category
    annotation, one origin annotation, and a subclass link when present.
    Per property: a type declaration, label, domain, range, and annotation
    triples for any non-default cardinality or value bound.  Two header
    triples identify the ontology itself.
    """
    ns = registry.namespace.value
    onto = ontology_node(registry)
    rdf_type = Iri(RDF_TYPE)
    label_p = Iri(RDFS_LABEL)
    cat_p = annotation_iri(registry, "category")
    origin_p = annotation_iri(registry, "origin")
    triples = [
        Triple(onto, rdf_type, Iri(OWL_ONTOLOGY)),
        Triple(onto, label_p, Literal("Microscopy metadata ontology")),
    ]
    for c in registry.classes:
        triples.append(Triple(c.iri, rdf_type, Iri(OWL_CLASS)))
        triples.append(Triple(c.iri, label_p, Literal(c.label)))
        triples.append(Triple(c.iri, cat_p, Literal(c.category.value)))
        triples.append(Triple(c.iri, origin_p, Literal(c.origin.value)))
        if c.superclass is not None:
            triples.append(Triple(c.iri, Iri(RDFS_SUBCLASSOF), c.superclass))
    int_dt = Iri(XSD_INTEGER)
    dec_dt = Iri(XSD_DECIMAL)
    for p in registry.properties:
        kind = OWL_DATATYPE_PROPERTY if p.is_datatype else OWL_OBJECT_PROPERTY
        triples.append(Triple(p.iri, rdf_type, Iri(kind)))
        triples.append(Triple(p.iri, label_p, Literal(p.label)))
        triples.append(Triple(p.iri, Iri(RDFS_DOMAIN), p.domain))
        triples.append(Triple(p.iri, Iri(RDFS_RANGE), p.range))
        if p.min_count > 0:
            triples.append(Triple(p.iri, annotation_iri(registry, "minCount"),
                                  Literal(str(p.min_count), int_dt)))
        if p.max_count is not None:
            triples.append(Triple(p.iri, annotation_iri(registry, "maxCount"),
                                  Literal(str(p.max_count), int_dt)))
        if p.min_exclusive is not None:
            triples.append(Triple(p.iri, annotation_iri(registry, "minExclusive"),
                                  Literal(format(p.min_exclusive, "f"), dec_dt)))
        if p.max_inclusive is not None:
            triples.append(Triple(p.iri, annotation_iri(registry, "maxInclusive"),
                                  Literal(format(p.max_inclusive, "f"), dec_dt)))
    prefixes = {
        "mo": ns,
        "owl": OWL_NS,
        "rdf": RDF_NS,
        "rdfs": RDFS_NS,
        "xsd": XSD_NS,
    }
    return Graph(triples, prefixes)
