"""Image-plus-annotation pairs to RDF instance graphs.

Every node is minted as a deterministic IRI derived from input ids
(skolemization), so identical inputs always produce byte-identical
canonical output and shared entities (a biosample appearing under several
images) collapse by plain set semantics when graphs merge.  The emitted
shape per image: the typed image node with its pixel dimensions, links to
typed experimenter/instrument nodes, and, when annotated, the chain
image -> biosample -> external strain IRI together with sample container,
sample preparation, imaging condition, and one phenotype-observation node
per recorded observation.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from operator import attrgetter
from typing import Optional
from urllib.parse import quote

from .errors import (
    EmptyLocalIdError,
    InvalidIriError,
    LinkRegistryError,
    MappingFailedError,
    OrphanAnnotationError,
    UnknownClassInRegistryError,
    UnresolvableStrainError,
)
from .namespaces import DEFAULT_INSTANCE_BASE, RDF_TYPE, XSD_NS
from .ome_xml import EmAnnotation, InstrumentKind, OmeDocument, OmeImage, join_annotations
from .ontology import OntologyClass, OntologyRegistry, PropertyDef
from .rdf import Graph, Iri, Literal, Triple

_TYPE = Iri(RDF_TYPE)
_XSD = Iri(XSD_NS)

# One table per node shape: (property label, getter) rows.  A row whose
# getter returns None emits nothing; the literal's datatype is always the
# property's range in the registry.
_IMAGE = (
    ("name", attrgetter("name")),
    ("sizeX", attrgetter("pixels.size_x")),
    ("sizeY", attrgetter("pixels.size_y")),
    ("sizeZ", attrgetter("pixels.size_z")),
    ("sizeC", attrgetter("pixels.size_c")),
    ("sizeT", attrgetter("pixels.size_t")),
    ("physicalSizeX", attrgetter("pixels.physical_size_x")),
    ("physicalSizeY", attrgetter("pixels.physical_size_y")),
    ("acquisitionDate", attrgetter("acquisition_date")),
)
_EXPERIMENTER = (("fullName", attrgetter("name")), ("email", attrgetter("email")))
_INSTRUMENT = (("model", attrgetter("model")),)
_PREPARATION = (("stainingMethod", attrgetter("staining_method")),)
_CONDITION = (
    ("accelerationVoltage", attrgetter("acceleration_voltage_kv")),
    ("electronGunType", attrgetter("electron_gun_type")),
    ("electronWavelength", attrgetter("electron_wavelength_pm")),
)
_PHENOTYPE = (("description", str),)


@dataclass(frozen=True)
class MintingPolicy:
    """Where instance IRIs are minted.

    There is no blank-node option: this toolkit never emits blank nodes
    of its own, which is what keeps batch output canonical.
    """

    instance_base: Iri = Iri(DEFAULT_INSTANCE_BASE)

    def __post_init__(self):
        if isinstance(self.instance_base, str):
            object.__setattr__(self, "instance_base", Iri(self.instance_base))
        if not self.instance_base.value.endswith(("/", "#")):
            raise ValueError("instance base must end with '/' or '#'")


def mint_iri(policy: MintingPolicy, cls: OntologyClass, local_id: str) -> Iri:
    """``instanceBase + lowercased class label + "/" + percent-encoded id``."""
    if local_id == "":
        raise EmptyLocalIdError("cannot mint an IRI from an empty local id")
    try:
        local = quote(local_id, safe="")
    except UnicodeEncodeError as e:  # a lone surrogate has no UTF-8 form
        raise InvalidIriError(f"cannot percent-encode local id {local_id!r}") from e
    return Iri(policy.instance_base.value + cls.label.lower() + "/" + local)


@dataclass(frozen=True)
class MappedRecord:
    image_iri: Iri
    graph: Graph
    external_links: tuple


def _class(registry: OntologyRegistry, label: str) -> OntologyClass:
    cls = registry.class_by_label(label)
    if cls is None:
        raise UnknownClassInRegistryError(f"registry has no {label!r} class")
    return cls


def _prop(registry: OntologyRegistry, label: str) -> PropertyDef:
    p = registry.property_by_label(label)
    if p is None:
        raise UnknownClassInRegistryError(f"registry has no {label!r} property")
    return p


def map_pair(
    img: OmeImage,
    ann: Optional[EmAnnotation],
    registry: OntologyRegistry,
    policy: MintingPolicy,
    links,
) -> MappedRecord:
    """Convert one image (and its optional annotation) to a graph.

    Pure and deterministic; the annotation, when given, must belong to the
    image.  Strain CURIEs resolve through ``links`` and surface in
    ``external_links``; resolution failures raise
    :class:`UnresolvableStrainError`.
    """
    if ann is not None and ann.image_id != img.id:
        raise ValueError(f"annotation {ann.image_id!r} does not belong to image {img.id!r}")
    triples = []

    def node(label, local_id, type_label=None):
        iri = mint_iri(policy, _class(registry, label), local_id)
        triples.append(Triple(iri, _TYPE, _class(registry, type_label or label).iri))
        return iri

    def link(subject, label, obj):
        triples.append(Triple(subject, _prop(registry, label).iri, obj))

    def literals(subject, table, record):
        for label, get in table:
            value = get(record)
            if value is not None:
                p = _prop(registry, label)
                lexical = format(value, "f") if isinstance(value, Decimal) else str(value)
                triples.append(Triple(subject, p.iri, Literal(lexical, p.range)))

    image_iri = node("Image", img.id)
    literals(image_iri, _IMAGE, img)

    if img.experimenter is not None:
        exp_iri = node("Experimenter", img.experimenter.id)
        link(image_iri, "acquiredBy", exp_iri)
        literals(exp_iri, _EXPERIMENTER, img.experimenter)

    if img.instrument is not None:
        # minted under the generic instrument path so the IRI is computable
        # from the ref alone; the type triple carries the specific class
        electron = img.instrument.kind is InstrumentKind.ELECTRON
        instr_iri = node("Instrument", img.instrument.id,
                         "ElectronMicroscope" if electron else None)
        link(image_iri, "acquiredWith", instr_iri)
        literals(instr_iri, _INSTRUMENT, img.instrument)

    external = ()
    if ann is not None:
        sample_iri = node("BioSample", ann.sample_id)
        link(image_iri, "depicts", sample_iri)
        if ann.container_id is not None:
            link(sample_iri, "containedIn", node("SampleContainer", ann.container_id))
        if ann.strain_id is not None:
            try:
                strain_iri = links.resolve(ann.strain_id)
            except LinkRegistryError as e:
                raise UnresolvableStrainError(ann.strain_id, str(e)) from e
            link(sample_iri, "derivedFrom", strain_iri)
            external = (strain_iri,)
        if ann.staining_method is not None:
            prep_iri = node("SamplePreparation", img.id)
            link(sample_iri, "preparedBy", prep_iri)
            literals(prep_iri, _PREPARATION, ann)
        if any(get(ann) is not None for _, get in _CONDITION):
            cond_iri = node("ImagingCondition", img.id)
            link(image_iri, "hasImagingCondition", cond_iri)
            literals(cond_iri, _CONDITION, ann)
        for i, observation in enumerate(ann.phenotype_observations):
            pheno_iri = node("PhenotypeData", f"{img.id}-p{i}")
            link(image_iri, "hasObservation", pheno_iri)
            literals(pheno_iri, _PHENOTYPE, observation)

    graph = Graph(triples, _instance_prefixes(registry, policy))
    return MappedRecord(image_iri, graph, external)


def _instance_prefixes(registry: OntologyRegistry, policy: MintingPolicy) -> dict:
    return {
        "mo": registry.namespace,
        "res": policy.instance_base,
        "xsd": _XSD,
    }


@dataclass(frozen=True)
class SkippedRecord:
    image_id: str
    code: str
    message: str


@dataclass(frozen=True)
class MapResult:
    graph: Graph
    records: tuple
    skipped: tuple = ()


def map_all(
    pairs,
    registry: OntologyRegistry,
    policy: MintingPolicy,
    links,
    skip_errors: bool = False,
) -> MapResult:
    """Map many (image, annotation) pairs and merge their graphs.

    The merged graph is the set union of the per-record graphs (all nodes
    are skolem IRIs, so no blank node needs relabelling).  Record
    order follows the input.  Without ``skip_errors`` the first failure
    raises :class:`MappingFailedError`; with it, failures become
    :class:`SkippedRecord` entries.
    """
    records = []
    skipped = []
    triples = []
    for img, ann in pairs:
        try:
            record = map_pair(img, ann, registry, policy, links)
        except Exception as e:
            if not skip_errors:
                raise MappingFailedError(img.id, e) from e
            skipped.append(SkippedRecord(img.id, getattr(e, "code", "Error"), str(e)))
            continue
        records.append(record)
        triples.extend(record.graph)
    merged = Graph(triples, _instance_prefixes(registry, policy))
    return MapResult(merged, tuple(records), tuple(skipped))


def map_document(
    doc: OmeDocument,
    annotations,
    registry: OntologyRegistry,
    policy: MintingPolicy,
    links,
    skip_errors: bool = False,
) -> MapResult:
    """Join a document with its sidecar annotations and map everything.

    With ``skip_errors``, orphan annotations (rows naming unknown images)
    are reported in ``skipped`` instead of raising.
    """
    skipped = []
    if skip_errors:
        known = {img.id for img in doc.images}
        kept = []
        for ann in annotations:
            if ann.image_id in known:
                kept.append(ann)
            else:
                err = OrphanAnnotationError(ann.image_id)
                skipped.append(SkippedRecord(ann.image_id, err.code, str(err)))
        annotations = kept
    pairs = join_annotations(doc, annotations)
    result = map_all(pairs, registry, policy, links, skip_errors=skip_errors)
    return MapResult(result.graph, result.records, tuple(skipped) + result.skipped)
