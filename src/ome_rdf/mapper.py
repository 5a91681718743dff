"""Image-plus-annotation pairs to RDF instance graphs.

Every node is minted as a deterministic IRI derived from input ids
(skolemization), so identical inputs always produce byte-identical
canonical output.  The emitted shape per image: the typed image node with
its pixel dimensions, links to typed experimenter/instrument nodes, and,
when annotated, the chain image -> biosample -> external strain IRI
together with sample container, sample preparation, imaging condition,
and one phenotype-observation node per recorded observation.

One call to :func:`map_document`, the one mapping entry point, pairs the
sidecar rows with the images and maps its records into one list of exact
triple tuples (see :mod:`ome_rdf.rdf.model`).  Within a call each distinct
IRI and literal is built once, and each shared subgraph (an experimenter or
instrument node with its literals, a biosample or container type triple, a
``containedIn`` or ``derivedFrom`` edge) is emitted by the first record that
names it, under a key tagged with its kind, since a reader record equals any
tuple of its values.  A record that raises takes back everything it
emitted.  The mapper reads the core ontology once, at import, as the
readers of :mod:`ome_rdf.ome_xml` do, and takes its class, property,
range and ``rdf:type`` IRIs from :func:`~ome_rdf.rdf.model.iri_text`
rather than from the ontology's and namespaces' objects, so that, where that
interns, a mapped graph holds the same IRI objects as every graph parsed
or built in the process.  Minted instance IRIs are not interned, and only an
image's is checked, once per record: ``MappedRecord.image_iri`` is an ``Iri``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
from .ome_xml import EmAnnotation, InstrumentKind, OmeDocument, OmeImage
from .ontology import OntologyRegistry, build_core_ontology
from .rdf import Graph, Iri, Literal
from .rdf.model import iri_text

_XSD = Iri(XSD_NS)
_CORE = build_core_ontology()
_TYPE = iri_text(RDF_TYPE)
_CLASS = {c.label: iri_text(c.iri) for c in _CORE.classes}
_PROPERTY = {p.label: iri_text(p.iri) for p in _CORE.properties}
_RANGE = {p.label: iri_text(p.range) for p in _CORE.properties}


# One table per node shape: (property IRI, range IRI, getter) rows.  A row
# whose getter returns None emits nothing; a literal's datatype is the range.
def _shape(*rows):
    return tuple((_PROPERTY[label], _RANGE[label], get) for label, get in rows)


_IMAGE = _shape(
    ("name", attrgetter("name")),
    ("sizeX", attrgetter("size_x")),
    ("sizeY", attrgetter("size_y")),
    ("sizeZ", attrgetter("size_z")),
    ("sizeC", attrgetter("size_c")),
    ("sizeT", attrgetter("size_t")),
    ("physicalSizeX", attrgetter("physical_size_x")),
    ("physicalSizeY", attrgetter("physical_size_y")),
    ("acquisitionDate", attrgetter("acquisition_date")),
)
_EXPERIMENTER = _shape(("fullName", attrgetter("name")), ("email", attrgetter("email")))
_INSTRUMENT = _shape(("model", attrgetter("model")))
_PREPARATION = _shape(("stainingMethod", attrgetter("staining_method")))
_CONDITION = _shape(
    ("accelerationVoltage", attrgetter("acceleration_voltage_kv")),
    ("electronGunType", attrgetter("electron_gun_type")),
    ("electronWavelength", attrgetter("electron_wavelength_pm")),
)
_PHENOTYPE = _shape(("description", str))


@dataclass(frozen=True)
class MintingPolicy:
    """Where instance IRIs are minted.

    There is no blank-node option: this toolkit never emits blank nodes
    of its own, which is what keeps batch output canonical.
    """

    instance_base: Iri = Iri(DEFAULT_INSTANCE_BASE)

    def __post_init__(self):
        base = self.instance_base
        if not isinstance(base, str):
            raise InvalidIriError(f"instance base must be text, not {type(base).__name__}")
        object.__setattr__(self, "instance_base", Iri(base))
        if not base.endswith(("/", "#")):
            raise InvalidIriError(f"instance base {base!r} must end with '/' or '#'")


def _encoded(local_id: str) -> str:
    """``local_id`` as unreserved characters and ``%XX``: no IRI check fails on it."""
    if local_id == "":
        raise EmptyLocalIdError("cannot mint an IRI from an empty local id")
    try:
        return quote(local_id, safe="")
    except UnicodeEncodeError as e:  # a lone surrogate has no UTF-8 form
        raise InvalidIriError(f"cannot percent-encode local id {local_id!r}") from e


@dataclass(frozen=True)
class MappedRecord:
    """One mapped image and the triples it added to its call's output.

    ``image_iri`` is the image's typed :class:`Iri` handle.  ``triples``
    holds what the graph holds, exact triple tuples: the image's own, and
    those of the shared nodes and edges (experimenter, instrument,
    biosample, container, strain link) that no earlier record of the same
    call emitted.  The records of one call repeat no triple as long as each
    experimenter and instrument id stands for one set of values, as in any
    parsed document.  ``graph`` builds a :class:`Graph` of ``triples`` on
    each access.
    """

    image_iri: Iri
    triples: tuple
    prefixes: dict = field(repr=False, compare=False)

    @property
    def graph(self) -> Graph:
        return Graph(self.triples, self.prefixes)


class _Emitter:
    """Maps the records of one call into one triple list.

    Its tables live as long as the call and hold what the graph holds,
    exact ``str`` IRIs and literal tuples: the minting base of each core
    class, the IRIs of the shared nodes (experimenter, instrument, biosample,
    container) by (class label, local id), literals by (lexical, datatype),
    resolved strains by CURIE (successes only); and the keys of the shared
    subgraphs already emitted.  A key starts with its kind and holds every
    value that its subgraph's triples come from, never the node's IRI alone,
    so two rows that give one sample different containers or strains emit
    both edges.
    """

    def __init__(self, registry: OntologyRegistry, policy: MintingPolicy, links):
        if registry is not _CORE and registry != _CORE:
            raise UnknownClassInRegistryError(f"{registry.namespace} is not the core ontology")
        # a node's IRI: instance base + lowercased class label + "/" + encoded id
        self.bases = {label: policy.instance_base.value + label.lower() + "/" for label in _CLASS}
        self.links = links
        self.prefixes = {"mo": _CORE.namespace, "res": policy.instance_base, "xsd": _XSD}
        self.triples = []
        self._iris = {}
        self._literals = {}
        self._strains = {}
        self._emitted = set()
        self._new_keys = []

    def record(self, img: OmeImage, ann: Optional[EmAnnotation]) -> MappedRecord:
        """Emit one record; one that raises takes back its triples and keys."""
        mark = len(self.triples)
        self._new_keys = []
        try:
            image_iri = self._emit(img, ann)
        except BaseException:
            del self.triples[mark:]
            self._emitted.difference_update(self._new_keys)
            raise
        return MappedRecord(Iri(image_iri), tuple(self.triples[mark:]), self.prefixes)

    def _first(self, key) -> bool:
        """True the first time ``key`` is seen in this call."""
        if key in self._emitted:
            return False
        self._emitted.add(key)
        self._new_keys.append(key)
        return True

    def mint(self, label: str, local_id: str) -> str:
        key = (label, local_id)
        iri = self._iris.get(key)
        if iri is None:
            iri = self._iris[key] = self.bases[label] + _encoded(local_id)
        return iri

    def typed(self, iri: str, label: str):
        self.triples.append((iri, _TYPE, _CLASS[label]))

    def node(self, label: str, encoded: str) -> str:
        iri = self.bases[label] + encoded
        self.typed(iri, label)
        return iri

    def link(self, subject: str, label: str, obj: str):
        self.triples.append((subject, _PROPERTY[label], obj))

    def literals(self, subject: str, table, record):
        for p, datatype, get in table:
            value = get(record)
            if value is not None:
                lexical = format(value, "f") if isinstance(value, Decimal) else str(value)
                key = (lexical, datatype)
                literal = self._literals.get(key)
                if literal is None:
                    literal = self._literals[key] = Literal(lexical, datatype)
                self.triples.append((subject, p, literal))

    def strain(self, curie: str) -> str:
        iri = self._strains.get(curie)
        if iri is None:
            try:
                iri = self.links.resolve(curie).value
            except LinkRegistryError as e:
                raise UnresolvableStrainError(curie, str(e)) from e
            self._strains[curie] = iri
        return iri

    def _emit(self, img: OmeImage, ann: Optional[EmAnnotation]):
        # the image, its preparation, condition and observations share one id
        encoded = _encoded(img.id)
        image_iri = self.node("Image", encoded)
        self.literals(image_iri, _IMAGE, img)

        exp = img.experimenter
        if exp is not None:
            exp_iri = self.mint("Experimenter", exp.id)
            self.link(image_iri, "acquiredBy", exp_iri)
            if self._first(("Experimenter", exp)):
                self.typed(exp_iri, "Experimenter")
                self.literals(exp_iri, _EXPERIMENTER, exp)

        instr = img.instrument
        if instr is not None:
            # minted under the generic instrument path so the IRI is computable
            # from the ref alone; the type triple carries the specific class
            instr_iri = self.mint("Instrument", instr.id)
            self.link(image_iri, "acquiredWith", instr_iri)
            if self._first(("Instrument", instr)):
                electron = instr.kind is InstrumentKind.ELECTRON
                self.typed(instr_iri, "ElectronMicroscope" if electron else "Instrument")
                self.literals(instr_iri, _INSTRUMENT, instr)

        if ann is not None:
            sample = ann.sample_id
            sample_iri = self.mint("BioSample", sample)
            self.link(image_iri, "depicts", sample_iri)
            if self._first(("BioSample", sample)):
                self.typed(sample_iri, "BioSample")
            if ann.container_id is not None:
                container_iri = self.mint("SampleContainer", ann.container_id)
                if self._first(("SampleContainer", ann.container_id)):
                    self.typed(container_iri, "SampleContainer")
                if self._first(("containedIn", sample, ann.container_id)):
                    self.link(sample_iri, "containedIn", container_iri)
            if ann.strain_id is not None:
                strain_iri = self.strain(ann.strain_id)
                if self._first(("derivedFrom", sample, strain_iri)):
                    self.link(sample_iri, "derivedFrom", strain_iri)
            if ann.staining_method is not None:
                prep_iri = self.node("SamplePreparation", encoded)
                self.link(sample_iri, "preparedBy", prep_iri)
                self.literals(prep_iri, _PREPARATION, ann)
            if any(get(ann) is not None for _, _, get in _CONDITION):
                cond_iri = self.node("ImagingCondition", encoded)
                self.link(image_iri, "hasImagingCondition", cond_iri)
                self.literals(cond_iri, _CONDITION, ann)
            for i, observation in enumerate(ann.phenotype_observations):
                pheno_iri = self.node("PhenotypeData", f"{encoded}-p{i}")
                self.link(image_iri, "hasObservation", pheno_iri)
                self.literals(pheno_iri, _PHENOTYPE, observation)
        return image_iri


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


def map_document(
    doc: OmeDocument,
    annotations,
    registry: OntologyRegistry,
    policy: MintingPolicy,
    links,
    skip_errors: bool = False,
) -> MapResult:
    """Pair each image with its sidecar row by image id, and map the pairs in
    ``doc.images`` order into one graph: the union of the graphs of the
    one-image documents, with each shared subgraph emitted once.  A row naming
    no image raises :class:`OrphanAnnotationError` before anything maps, and a
    failing record :class:`MappingFailedError`; ``skip_errors`` makes both
    :class:`SkippedRecord` entries, orphans first.  A registry not equal to the
    core raises :class:`UnknownClassInRegistryError` before any record maps."""
    by_id = dict.fromkeys(img.id for img in doc.images)
    skipped = []
    for ann in annotations:
        if ann.image_id in by_id:
            by_id[ann.image_id] = ann
        elif skip_errors:
            err = OrphanAnnotationError(ann.image_id)
            skipped.append(SkippedRecord(ann.image_id, err.code, str(err)))
        else:
            raise OrphanAnnotationError(ann.image_id)
    emitter = _Emitter(registry, policy, links)
    records = []
    for img in doc.images:
        try:
            records.append(emitter.record(img, by_id[img.id]))
        except Exception as e:
            if not skip_errors:
                raise MappingFailedError(img.id, e) from e
            skipped.append(SkippedRecord(img.id, getattr(e, "code", "Error"), str(e)))
    graph = Graph(emitter.triples, emitter.prefixes)
    return MapResult(graph, tuple(records), tuple(skipped))
