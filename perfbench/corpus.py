"""Seeded OME-XML + sidecar corpora for the benchmark, with their expected RDF.

``generate(spec, seed, ns, base)`` is byte-deterministic per (spec, seed):
it seeds ``random.Random`` with a string, which does not depend on
``PYTHONHASHSEED``, and writes the text itself rather than through an XML
library.  Besides the two input texts it returns what the pipeline must
make of them: the outcome of every record (mapped, or skipped with an error
code) and, for every mapped image, the triples ``map_pair`` should emit.
Those triples are an independent reference written from the generator's own
values, so the benchmark can check the mapper and the serializers against
something other than themselves.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from urllib.parse import quote

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
XSD = "http://www.w3.org/2001/XMLSchema#"
OME_NS = "http://www.openmicroscopy.org/Schemas/OME/2016-06"
SIDECAR_HEADER = ("image_id\tsample_id\tcontainer_id\tstrain_id\tstain\t"
                  "voltage_kv\tgun_type\twavelength_pm\tphenotypes\n")

ORPHAN = "OrphanAnnotation"
UNRESOLVABLE = "UnresolvableStrain"


@dataclass(frozen=True)
class Spec:
    """Shape of one generated corpus.

    The ``images_per_*`` fields set how many images share one entity on
    average; ``fault_rate`` is the share of images that get an injected
    fault, split evenly between orphan sidecar rows and unknown strain
    prefixes.  The shares that set how much work a corpus is (annotated
    images, electron microscopes, faults) are exact, so that every seed
    gives the same amount of work and seeds differ only in content.
    """

    images: int
    annotated: float
    electron: float
    images_per_experimenter: int
    images_per_instrument: int
    images_per_sample: int
    strain_pool: int
    fault_rate: float
    optional_fields: float  # chance that each optional OME field is present


EM_SHARED = Spec(images=5000, annotated=1.0, electron=1.0,
                 images_per_experimenter=500, images_per_instrument=1000,
                 images_per_sample=20, strain_pool=2000, fault_rate=0.0,
                 optional_fields=1.0)
MIXED_SPARSE = Spec(images=5000, annotated=0.5, electron=0.5,
                    images_per_experimenter=5, images_per_instrument=50,
                    images_per_sample=2, strain_pool=2000, fault_rate=0.02,
                    optional_fields=0.8)

# (voltage kV, relativistic electron wavelength pm), as instruments write them
_BEAMS = [("300", "1.97"), ("200", "2.51"), ("120", "3.35"), ("80", "4.18"),
          ("5.0", "17.3"), ("1.5", "31.0")]
_GUNS = ["field emission", "cold field emission", "thermionic LaB6", "tungsten hairpin"]
_EM_MODELS = ["JEM-1400Plus", "Talos F200C", "Titan Krios G4", "SU8230", "Helios 5 CX"]
_OPTICAL_MODELS = ["Axio Imager 2", "FV3000", "Ti2-E", "LSM 980"]
_STAINS = ["osmium tetroxide", "uranyl acetate", "lead citrate", "osmium",
           "tannic acid", "ruthenium red"]
_TISSUES = ["liver", "kidney", "cortex", "retina", "cochlea", "muscle", "pancreas"]
_PHENOTYPES = ["enlarged mitochondria", "lipid droplets", "normal morphology",
               "fibrosis", "vacuolation", "myelin defect", "cilia loss",
               "glycogen accumulation"]
_PIXEL_SIZES = ["0.0012", "0.004", "0.0085", "0.02", "0.125", "0.65"]
_NAMES = ["A. Imager", "B. Tanaka", "C. Müller", "D. Okafor", "E. Suzuki", "F. Rossi"]


@dataclass(frozen=True)
class Corpus:
    ome_xml: str
    sidecar: str
    images: int
    #: record id -> None when the record maps, else the expected skip code
    outcomes: dict
    #: image id -> tuple of (subject, predicate, object) expected triples;
    #: IRIs are plain strings, literals are (lexical, datatype-or-None)
    triples: dict


@dataclass
class _Vocab:
    ns: str
    base: str

    def term(self, label):
        """A class or property of the ontology, by label."""
        return self.ns + label

    def mint(self, class_label, local_id):
        return self.base + class_label.lower() + "/" + quote(local_id, safe="")


def generate(spec: Spec, seed: int, ns: str, base: str) -> Corpus:
    """Write the corpus of ``spec`` for ``seed``.

    ``ns`` and ``base`` are the ontology namespace and the instance base
    the pipeline will use; they only shape the expected triples.
    """
    rng = random.Random(f"ome-rdf-corpus:{spec}:{seed}")
    v = _Vocab(ns, base)
    n = spec.images

    experimenters = []
    for k in range(max(1, n // spec.images_per_experimenter)):
        email = f"user{k}@lab{k % 7}.example" if rng.random() < 0.7 else None
        experimenters.append((f"E{k:05d}", f"{rng.choice(_NAMES)} {k}", email))
    instruments = []
    n_instruments = max(1, n // spec.images_per_instrument)
    for k in range(n_instruments):
        electron = k < round(n_instruments * spec.electron)
        model = rng.choice(_EM_MODELS if electron else _OPTICAL_MODELS)
        beam = rng.choice(_BEAMS)
        instruments.append((f"I{k:04d}", electron, model, beam, rng.choice(_GUNS)))
    annotated = sorted(rng.sample(range(n), max(1, round(n * spec.annotated))))
    n_faults = round(n * spec.fault_rate / 2)
    unresolvable = set(rng.sample(annotated, n_faults))
    orphans = set(rng.sample(range(n), n_faults))
    n_annotated = len(annotated)
    annotated = set(annotated)
    samples = []
    for k in range(max(1, n_annotated // spec.images_per_sample)):
        container = f"C{k // 4:05d}" if rng.random() < spec.optional_fields else None
        strain = (f"rikenbrc_mouse:RBRC{rng.randrange(1, spec.strain_pool + 1):05d}"
                  if rng.random() < spec.optional_fields else None)
        samples.append((f"S{k:05d}", container, strain))

    xml = ['<?xml version="1.0" encoding="UTF-8"?>\n', f'<OME xmlns="{OME_NS}">\n']
    for eid, name, email in experimenters:
        mail = f' Email="{email}"' if email else ""
        xml.append(f'  <Experimenter ID="{eid}" Name="{name}"{mail}/>\n')
    for iid, electron, model, _beam, _gun in instruments:
        kind = "Electron" if electron else "Optical"
        xml.append(f'  <Instrument ID="{iid}" Kind="{kind}" Model="{model}"/>\n')

    rows = []
    outcomes = {}
    triples = {}
    opt = spec.optional_fields
    for i in range(n):
        image_id = f"IMG{i:06d}"
        name = f"{rng.choice(_TISSUES)} section {i}"
        size_x = rng.choice((1024, 2048, 4096))
        size_y = rng.choice((1024, 2048, 4096))
        size_z = rng.choice((1, 1, 1, 8, 64))
        size_c = rng.choice((1, 1, 2, 3))
        physical = rng.choice(_PIXEL_SIZES) if rng.random() < opt else None
        date = (f"20{rng.randrange(15, 24)}-{rng.randrange(1, 13):02d}-"
                f"{rng.randrange(1, 29):02d}T{rng.randrange(24):02d}:"
                f"{rng.randrange(60):02d}:00{rng.choice(('Z', '+09:00', '-05:00'))}"
                if rng.random() < opt else None)
        exp = rng.choice(experimenters) if rng.random() < opt else None
        ins = rng.choice(instruments) if rng.random() < opt else None

        xml.append(f'  <Image ID="{image_id}" Name="{name}">\n')
        if date is not None:
            xml.append(f"    <AcquisitionDate>{date}</AcquisitionDate>\n")
        if exp is not None:
            xml.append(f'    <ExperimenterRef ID="{exp[0]}"/>\n')
        if ins is not None:
            xml.append(f'    <InstrumentRef ID="{ins[0]}"/>\n')
        phys = (f' PhysicalSizeX="{physical}" PhysicalSizeY="{physical}"'
                if physical is not None else "")
        xml.append(f'    <Pixels SizeX="{size_x}" SizeY="{size_y}" SizeZ="{size_z}"'
                   f' SizeC="{size_c}" SizeT="1"{phys}/>\n')
        xml.append("  </Image>\n")

        img = v.mint("Image", image_id)
        t = [(img, RDF_TYPE, v.term("Image")),
             (img, v.term("name"), (name, None))]
        for label, size in (("sizeX", size_x), ("sizeY", size_y), ("sizeZ", size_z),
                            ("sizeC", size_c), ("sizeT", 1)):
            t.append((img, v.term(label), (str(size), XSD + "integer")))
        if physical is not None:
            t.append((img, v.term("physicalSizeX"), (physical, XSD + "decimal")))
            t.append((img, v.term("physicalSizeY"), (physical, XSD + "decimal")))
        if date is not None:
            t.append((img, v.term("acquisitionDate"), (date, XSD + "dateTime")))
        if exp is not None:
            e = v.mint("Experimenter", exp[0])
            t += [(img, v.term("acquiredBy"), e),
                  (e, RDF_TYPE, v.term("Experimenter")),
                  (e, v.term("fullName"), (exp[1], None))]
            if exp[2] is not None:
                t.append((e, v.term("email"), (exp[2], None)))
        if ins is not None:
            m = v.mint("Instrument", ins[0])
            t += [(img, v.term("acquiredWith"), m),
                  (m, RDF_TYPE, v.term("ElectronMicroscope" if ins[1] else "Instrument")),
                  (m, v.term("model"), (ins[2], None))]

        outcome = None
        if i in annotated:
            sample = rng.choice(samples)
            strain = sample[2]
            if i in unresolvable:
                # a strain prefix the link registry does not know; the row
                # gets a sample of its own so no other image shares it
                sample = (f"X{i:06d}", None, None)
                strain = f"mgi_mouse:MGI{rng.randrange(10**6, 10**7)}"
                outcome = UNRESOLVABLE
            electron = ins is not None and ins[1]
            stain = rng.choice(_STAINS) if rng.random() < opt else None
            beam = ins[3] if electron else None
            gun = ins[4] if electron else None
            phenotypes = rng.sample(_PHENOTYPES, rng.randrange(5))
            rows.append((image_id, sample[0], sample[1], strain, stain,
                         beam[0] if beam else None, gun,
                         beam[1] if beam else None, phenotypes))

            s = v.mint("BioSample", sample[0])
            t += [(s, RDF_TYPE, v.term("BioSample")), (img, v.term("depicts"), s)]
            if sample[1] is not None:
                c = v.mint("SampleContainer", sample[1])
                t += [(c, RDF_TYPE, v.term("SampleContainer")),
                      (s, v.term("containedIn"), c)]
            if strain is not None:
                t.append((s, v.term("derivedFrom"),
                          "http://metadb.riken.jp/metadb/db/rikenbrc_mouse/"
                          + strain.split(":", 1)[1]))
            if stain is not None:
                p = v.mint("SamplePreparation", image_id)
                t += [(p, RDF_TYPE, v.term("SamplePreparation")),
                      (s, v.term("preparedBy"), p),
                      (p, v.term("stainingMethod"), (stain, None))]
            if electron:
                c = v.mint("ImagingCondition", image_id)
                t += [(c, RDF_TYPE, v.term("ImagingCondition")),
                      (img, v.term("hasImagingCondition"), c),
                      (c, v.term("accelerationVoltage"), (beam[0], XSD + "decimal")),
                      (c, v.term("electronGunType"), (gun, None)),
                      (c, v.term("electronWavelength"), (beam[1], XSD + "decimal"))]
            for k, text in enumerate(phenotypes):
                p = v.mint("PhenotypeData", f"{image_id}-p{k}")
                t += [(p, RDF_TYPE, v.term("PhenotypeData")),
                      (img, v.term("hasObservation"), p),
                      (p, v.term("description"), (text, None))]
        if i in orphans:
            # a sidecar row for an image the document does not contain
            orphan = f"LOST{i:06d}"
            rows.append((orphan, f"S{i:06d}", None, None, "osmium", None, None, None, ()))
            outcomes[orphan] = ORPHAN
        outcomes[image_id] = outcome
        if outcome is None:
            triples[image_id] = tuple(t)
    xml.append("</OME>\n")

    tsv = [SIDECAR_HEADER]
    for row in rows:
        cells = ["" if c is None else c for c in row[:8]]
        tsv.append("\t".join(cells) + "\t" + ";".join(row[8]) + "\n")
    return Corpus("".join(xml), "".join(tsv), n, outcomes, triples)


def term_ntriples(term) -> str:
    """N-Triples form of an expected term (generated text needs no escapes)."""
    if isinstance(term, str):
        return f"<{term}>"
    lexical, datatype = term
    return f'"{lexical}"' if datatype is None else f'"{lexical}"^^<{datatype}>'


def expected_ntriples(corpus: Corpus) -> str:
    """The canonical N-Triples the mapped corpus must serialize to."""
    lines = {f"{term_ntriples(s)} {term_ntriples(p)} {term_ntriples(o)} .\n"
             for triples in corpus.triples.values() for s, p, o in triples}
    return "".join(sorted(lines, key=lambda line: line.encode("utf-8")))
