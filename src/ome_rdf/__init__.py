"""ome-rdf: OME-style microscopy metadata as canonical RDF.

Library layers, bottom up: an RDF core with canonical serialization
(:mod:`ome_rdf.rdf`), the microscopy ontology (:mod:`ome_rdf.ontology`),
an XSD-to-ontology translator (:mod:`ome_rdf.xsd_translator`), OME-XML and
annotation-sidecar parsing (:mod:`ome_rdf.ome_xml`), instance-graph mapping
(:mod:`ome_rdf.mapper`), and external-identifier resolution
(:mod:`ome_rdf.links`).
"""

__version__ = "0.1.0"
