"""Well-known RDF namespaces and the toolkit's own default bases."""

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
OWL_NS = "http://www.w3.org/2002/07/owl#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"

RDF_TYPE = RDF_NS + "type"
RDF_LANGSTRING = RDF_NS + "langString"
RDFS_LABEL = RDFS_NS + "label"
RDFS_SUBCLASSOF = RDFS_NS + "subClassOf"
RDFS_DOMAIN = RDFS_NS + "domain"
RDFS_RANGE = RDFS_NS + "range"
OWL_CLASS = OWL_NS + "Class"
OWL_ONTOLOGY = OWL_NS + "Ontology"
OWL_OBJECT_PROPERTY = OWL_NS + "ObjectProperty"
OWL_DATATYPE_PROPERTY = OWL_NS + "DatatypeProperty"

XSD_STRING = XSD_NS + "string"
XSD_INTEGER = XSD_NS + "integer"
XSD_DECIMAL = XSD_NS + "decimal"
XSD_DOUBLE = XSD_NS + "double"
XSD_FLOAT = XSD_NS + "float"
XSD_DATETIME = XSD_NS + "dateTime"

# Defaults for the toolkit's own vocabulary and minted instances.  Both are
# overridable through the arguments of every function that uses them.
DEFAULT_ONTOLOGY_NS = "http://ome-rdf.org/schema#"
DEFAULT_INSTANCE_BASE = "http://ome-rdf.org/resource/"
