"""Exception types raised across the package.

Keeping them in one module avoids circular imports between the parsing and
mapping layers.
"""

import copyreg


class OmeRdfError(Exception):
    """Base class for all toolkit errors."""

    #: short machine-readable code; a skipped record carries it
    code = "Error"
    __str__ = Exception.__str__  # the plain message, not a KeyError's quoted one

    def __reduce__(self):
        # rebuilt from its class, message and attributes without __init__,
        # whose arguments differ from class to class
        return copyreg.__newobj__, (self.__class__, *self.args), self.__dict__


# ---------------------------------------------------------------- rdf model

class InvalidIriError(OmeRdfError, ValueError):
    code = "InvalidIri"


class InvalidLiteralError(OmeRdfError, ValueError):
    code = "InvalidLiteral"


class InvalidBlankNodeError(OmeRdfError, ValueError):
    code = "InvalidBlankNode"


class TooLargeForExactCheckError(OmeRdfError):
    """More blank nodes than the fixed ``BRUTE_FORCE_BOUND`` stay open after refinement."""

    code = "TooLargeForExactCheck"


class RdfSyntaxError(OmeRdfError):
    """Malformed Turtle or N-Triples input."""

    code = "SyntaxError"

    def __init__(self, message, line, column):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class UnsupportedConstructError(RdfSyntaxError):
    """Syntactically valid RDF that falls outside the supported subset."""

    code = "UnsupportedConstruct"


class UnknownFormatError(OmeRdfError, ValueError):
    """A format name that neither the parsers nor the writers support."""

    code = "UnknownFormat"

    def __init__(self, format):
        self.format = format
        super().__init__(f"unknown format {format!r}; expected 'ntriples' or 'turtle'")


# ------------------------------------------------------------- xsd translator

class MalformedXmlError(OmeRdfError):
    code = "MalformedXml"


class EmptySchemaError(OmeRdfError):
    code = "EmptySchema"


class NameCollisionError(OmeRdfError):
    code = "NameCollision"


# ---------------------------------------------------------------- ome parser

class OmeParseError(OmeRdfError):
    code = "OmeParseError"


class DanglingReferenceError(OmeParseError):
    code = "DanglingReference"

    def __init__(self, ref_id):
        self.ref_id = ref_id
        super().__init__(f"reference to undeclared id {ref_id!r}")


class MissingRequiredFieldError(OmeParseError):
    code = "MissingRequiredField"

    def __init__(self, path):
        self.path = path
        super().__init__(f"missing required field at {path}")


class InvalidDimensionError(OmeParseError):
    code = "InvalidDimension"

    def __init__(self, path, reason):
        self.path = path
        super().__init__(f"{path}: {reason}")


class InvalidValueError(OmeParseError):
    code = "InvalidValue"

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


class DuplicateIdError(OmeParseError):
    code = "DuplicateId"

    def __init__(self, dup_id):
        self.dup_id = dup_id
        super().__init__(f"duplicate id {dup_id!r}")


# ------------------------------------------------------------------- sidecar

class SidecarError(OmeRdfError):
    code = "SidecarError"


class BadHeaderError(SidecarError):
    code = "BadHeader"


class UnknownColumnError(SidecarError):
    code = "UnknownColumn"

    def __init__(self, name):
        self.name = name
        super().__init__(f"unknown column {name!r}")


class BadValueError(SidecarError):
    code = "BadValue"

    def __init__(self, row, column, message):
        self.row = row
        self.column = column
        super().__init__(f"row {row}, column {column!r}: {message}")


class DuplicateImageIdError(SidecarError):
    code = "DuplicateImageId"

    def __init__(self, image_id):
        self.image_id = image_id
        super().__init__(f"duplicate image_id {image_id!r}")


class OrphanAnnotationError(OmeRdfError):
    code = "OrphanAnnotation"

    def __init__(self, image_id):
        self.image_id = image_id
        super().__init__(f"annotation for unknown image {image_id!r}")


# -------------------------------------------------------------------- mapper

class EmptyLocalIdError(OmeRdfError, ValueError):
    code = "EmptyLocalId"


class UnknownClassInRegistryError(OmeRdfError):
    code = "UnknownClassInRegistry"


class UnresolvableStrainError(OmeRdfError):
    code = "UnresolvableStrain"

    def __init__(self, strain_id, reason):
        self.strain_id = strain_id
        self.reason = reason
        super().__init__(f"cannot resolve strain {strain_id!r}: {reason}")


class MappingFailedError(OmeRdfError):
    """A per-record mapping failure, carrying the image id and the cause."""

    def __init__(self, image_id, cause):
        self.image_id = image_id
        self.cause = cause
        self.code = getattr(cause, "code", "Error")
        super().__init__(f"image {image_id!r}: {cause}")


# ------------------------------------------------------------- link registry

class LinkRegistryError(OmeRdfError):
    code = "LinkRegistryError"


class UnknownPrefixError(LinkRegistryError):
    code = "UnknownPrefix"

    def __init__(self, prefix):
        self.prefix = prefix
        super().__init__(f"unknown prefix {prefix!r}")


class MalformedCurieError(LinkRegistryError):
    code = "MalformedCurie"


class IdPatternMismatchError(LinkRegistryError):
    code = "IdPatternMismatch"

    def __init__(self, curie, pattern):
        self.curie = curie
        self.pattern = pattern
        super().__init__(f"{curie!r} does not match id pattern {pattern!r}")


# ------------------------------------------------------------------ ontology

class ClassNotFoundError(OmeRdfError, KeyError):
    code = "NotFound"

    def __init__(self, iri):
        self.iri = iri
        super().__init__(f"no class registered for {iri}")
