"""Parsers for OME-XML instance documents (subset) and EM annotation sidecars.

The OME-XML subset covers Image/Pixels/Instrument/Experimenter elements and
their reference attributes; references are resolved during parsing, so an
:class:`OmeImage` carries the resolved instrument and experimenter records,
and its Pixels values, which the core rows put on ``Image``.  Sidecars are
strict TSV files with a fixed header (see SIDECAR_COLUMNS); one row annotates
one image with biosample and imaging-condition details.  An OME-XML attribute
that maps to a core registry property is read by its row, whose ``min_count``
alone makes it required; every numeric value, such an attribute or a voltage
or wavelength cell, is read as the range of its property (``xsd:integer`` as
``int``, ``xsd:decimal`` as ``Decimal``) within that property's bounds.  The
records are typed tuples (``NamedTuple``): each equals the plain tuple of its
values, and ``_replace`` makes a changed copy.

Timestamps must be in the ``xsd:dateTime`` lexical form with a timezone
and are kept as the original lexical strings so downstream RDF output
stays byte-stable.
Decimal-valued fields use :class:`decimal.Decimal` for the same reason.
Both XML readers, this one and :mod:`ome_rdf.xsd_translator`'s, take
their root element from :func:`read_xml` and read integers by
:func:`ascii_integer`.
"""

from __future__ import annotations

import enum
import re
import xml.etree.ElementTree as ET
from decimal import Decimal, InvalidOperation
from typing import NamedTuple, Optional

from .errors import (
    BadHeaderError,
    BadValueError,
    DanglingReferenceError,
    DuplicateIdError,
    DuplicateImageIdError,
    InvalidDimensionError,
    InvalidValueError,
    MalformedXmlError,
    MissingRequiredFieldError,
    UnknownColumnError,
)
from .links import PREFIX_RE, tsv_lines
from .namespaces import XSD_INTEGER, XSD_STRING
from .ontology import build_core_ontology
from .rdf.model import DATETIME_LEXICAL_RE, SURROGATE_RE, datetime_day_exists

SIDECAR_COLUMNS = (
    "image_id", "sample_id", "container_id", "strain_id", "stain",
    "voltage_kv", "gun_type", "wavelength_pm", "phenotypes",
)

_CURIE_RE = re.compile(rf"^{PREFIX_RE.pattern}:\S+$")

# Decimals are written out in full (no exponent), so an exponent must stay
# small: "1E+999999999" would expand to a gigabyte of digits.
DECIMAL_EXPONENT_MAX = 100
# The numbers int() and Decimal() read, in ASCII only: a sign, digits, a
# decimal's fraction and exponent, and space, tab, CR or LF around them.
# Both would also take underscores, other scripts' digits, any Unicode space
# and, for Decimal, NaN and Infinity.
_INTEGER_RE = re.compile(r"[ \t\r\n]*[+-]?[0-9]+[ \t\r\n]*")
_DECIMAL_RE = re.compile(
    r"[ \t\r\n]*[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?[ \t\r\n]*"
)

# each element's attributes and their core properties, in its record's field order
_INSTRUMENT_ATTRS, _EXPERIMENTER_ATTRS, _IMAGE_ATTRS, _PIXELS_ATTRS = (
    tuple((attr, build_core_ontology().property_by_label(label)) for attr, label in table)
    for table in [
        [("Model", "model")],
        [("Name", "fullName"), ("Email", "email")],
        [("Name", "name")],
        [("SizeX", "sizeX"), ("SizeY", "sizeY"), ("SizeZ", "sizeZ"), ("SizeC", "sizeC"),
         ("SizeT", "sizeT"), ("PhysicalSizeX", "physicalSizeX"),
         ("PhysicalSizeY", "physicalSizeY")],
    ])
_VOLTAGE = build_core_ontology().property_by_label("accelerationVoltage")
_WAVELENGTH = build_core_ontology().property_by_label("electronWavelength")
# the children of an <Image> that are read; the schema allows each at most once
_IMAGE_CHILDREN = frozenset({"Pixels", "AcquisitionDate", "InstrumentRef", "ExperimenterRef"})


class InstrumentKind(enum.Enum):
    OPTICAL = "optical"
    ELECTRON = "electron"


class OmeInstrument(NamedTuple):
    id: str
    kind: InstrumentKind
    model: Optional[str] = None


class OmeExperimenter(NamedTuple):
    id: str
    name: str
    email: Optional[str] = None


class OmeImage(NamedTuple):
    id: str
    name: str
    size_x: int
    size_y: int
    size_z: int
    size_c: int
    size_t: int
    physical_size_x: Optional[Decimal] = None  # micrometres
    physical_size_y: Optional[Decimal] = None
    acquisition_date: Optional[str] = None  # ISO-8601 with timezone
    instrument: Optional[OmeInstrument] = None
    experimenter: Optional[OmeExperimenter] = None


class OmeDocument(NamedTuple):
    images: tuple
    instruments: tuple
    experimenters: tuple


class EmAnnotation(NamedTuple):
    """One sidecar row: EM and biosample context for one image."""

    image_id: str
    sample_id: str
    container_id: Optional[str] = None
    strain_id: Optional[str] = None  # CURIE, e.g. rikenbrc_mouse:RBRC00001
    staining_method: Optional[str] = None
    acceleration_voltage_kv: Optional[Decimal] = None
    electron_gun_type: Optional[str] = None
    electron_wavelength_pm: Optional[Decimal] = None
    phenotype_observations: tuple = ()


def local_name(tag: str) -> str:
    """An element tag without its ``{namespace}``."""
    return tag.rsplit("}", 1)[-1]


def read_xml(text: str, root: str) -> ET.Element:
    """The root element of the XML document ``text``, whose local name must
    be ``root``.  Text that is not well-formed XML, or that holds a lone
    surrogate, which has no UTF-8 form, raises :class:`MalformedXmlError`."""
    try:
        element = ET.fromstring(text)
    except (ET.ParseError, UnicodeEncodeError) as e:
        raise MalformedXmlError(f"not well-formed XML: {e}") from e
    if local_name(element.tag) != root:
        raise MalformedXmlError(
            f"root element is {local_name(element.tag)!r}, expected {root}")
    return element


def ascii_integer(raw: str) -> int:
    """``raw`` read as an integer in ASCII digits, with an optional sign and
    space, tab, CR or LF around it.  Any other text, or more digits than
    ``int()`` reads, raises ``ValueError``."""
    # bare ASCII digits, the usual form, need no pattern
    if not (raw.isdigit() and raw.isascii()) and _INTEGER_RE.fullmatch(raw) is None:
        raise ValueError(raw)
    return int(raw)


def _number(raw, prop, error, where, what):
    """``raw`` read as a value of ``prop``'s range within ``prop``'s bounds:
    an ``xsd:integer`` as an ``int``, an ``xsd:decimal`` as a ``Decimal``
    that can be written out in full.  A fault raises
    ``error(where, what, reason)``, so the message is built only then."""
    if prop.range == XSD_INTEGER:
        try:
            value = ascii_integer(raw)
        except ValueError:
            raise error(where, what, f"{raw!r} is not an integer") from None
    else:  # xsd:decimal
        try:
            # ASCII digits with at most one ".", the usual form, need no pattern
            if (not (raw.isascii() and raw.replace(".", "", 1).isdigit())
                    and _DECIMAL_RE.fullmatch(raw) is None):
                raise InvalidOperation(raw)
            value = Decimal(raw)
        except InvalidOperation:  # also an exponent too large for Decimal
            raise error(where, what, f"{raw!r} is not a decimal") from None
        if abs(value.adjusted()) > DECIMAL_EXPONENT_MAX:
            raise error(where, what, f"{raw!r} exponent out of range")
    lo, hi = prop.min_exclusive, prop.max_inclusive
    if lo is not None and value <= lo:
        raise error(where, what, f"{value} violates {prop.label} > {lo}")
    if hi is not None and value > hi:
        raise error(where, what, f"{value} violates {prop.label} <= {hi}")
    return value


def _dimension_error(path, attr, reason):
    return InvalidDimensionError(f"{path}@{attr}", reason)


def _check_timestamp(raw, path):
    # the xsd:dateTime check of rdf.model, with the timezone required
    m = DATETIME_LEXICAL_RE.fullmatch(raw)
    if m is None or m.group(4) is None:
        raise InvalidValueError(
            path, f"{raw!r} is not YYYY-MM-DDThh:mm:ss[.s] with Z or a +hh:mm/-hh:mm timezone")
    if not datetime_day_exists(m):
        raise InvalidValueError(path, f"{raw!r} is not a valid date and time")
    return raw


def _require(el, attr, path):
    value = el.get(attr)
    if value is None or value == "":
        raise MissingRequiredFieldError(f"{path}@{attr}")
    return value


def _values(el, table, path):
    """``el``'s attributes in ``table``: one absent, or empty on a string row,
    raises if its row's ``min_count`` is set; a number is read by its row."""
    values = []
    for attr, prop in table:
        raw = el.get(attr)
        if prop.min_count and (raw is None or raw == "" and prop.range == XSD_STRING):
            raise MissingRequiredFieldError(f"{path}@{attr}")
        values.append(raw if raw is None or prop.range == XSD_STRING
                      else _number(raw, prop, _dimension_error, path, attr))
    return values


def parse_ome_document(text: str) -> OmeDocument:
    """Parse an OME-XML document into fully resolved records.

    Duplicate ids, references to undeclared instruments/experimenters and
    an image's second ``Pixels``, ``AcquisitionDate``, ``InstrumentRef`` or
    ``ExperimenterRef`` are errors; elements outside the supported subset
    are ignored.
    """
    root = read_xml(text, "OME")
    instruments: dict = {}
    experimenters: dict = {}
    raw_images = []
    for child in root:
        tag = local_name(child.tag)
        if tag == "Instrument":
            iid = _require(child, "ID", "/OME/Instrument")
            if iid in instruments:
                raise DuplicateIdError(iid)
            kind_raw = child.get("Kind", "Optical")
            try:
                kind = InstrumentKind(kind_raw.lower())  # each value is a lower-cased Kind
            except ValueError:
                raise InvalidValueError(
                    f"/OME/Instrument[{iid}]@Kind",
                    f"{kind_raw!r} is not Optical or Electron") from None
            instruments[iid] = OmeInstrument(
                iid, kind, *_values(child, _INSTRUMENT_ATTRS, f"/OME/Instrument[{iid}]"))
        elif tag == "Experimenter":
            eid = _require(child, "ID", "/OME/Experimenter")
            if eid in experimenters:
                raise DuplicateIdError(eid)
            experimenters[eid] = OmeExperimenter(
                eid, *_values(child, _EXPERIMENTER_ATTRS, f"/OME/Experimenter[{eid}]"))
        elif tag == "Image":
            raw_images.append(child)

    images = []
    seen_images = set()
    for el in raw_images:
        iid = _require(el, "ID", "/OME/Image")
        path = f"/OME/Image[{iid}]"
        if iid in seen_images:
            raise DuplicateIdError(iid)
        seen_images.add(iid)
        values = _values(el, _IMAGE_ATTRS, path)
        pixels_el = None
        acq_date = None
        instrument_ref = None
        experimenter_ref = None
        seen_children = set()
        for sub in el:
            tag = local_name(sub.tag)
            if tag not in _IMAGE_CHILDREN:
                continue
            if tag in seen_children:
                raise InvalidValueError(f"{path}/{tag}", "appears more than once")
            seen_children.add(tag)
            if tag == "Pixels":
                pixels_el = sub
            elif tag == "AcquisitionDate":
                # XML whitespace only, as xsd:dateTime's whitespace collapse
                acq_date = _check_timestamp((sub.text or "").strip(" \t\r\n"),
                                            f"{path}/AcquisitionDate")
            elif tag == "InstrumentRef":
                instrument_ref = _require(sub, "ID", f"{path}/InstrumentRef")
            else:
                experimenter_ref = _require(sub, "ID", f"{path}/ExperimenterRef")
        if pixels_el is None:
            raise MissingRequiredFieldError(f"{path}/Pixels")
        values += _values(pixels_el, _PIXELS_ATTRS, f"{path}/Pixels")
        if instrument_ref is not None and instrument_ref not in instruments:
            raise DanglingReferenceError(instrument_ref)
        if experimenter_ref is not None and experimenter_ref not in experimenters:
            raise DanglingReferenceError(experimenter_ref)
        images.append(OmeImage(iid, *values, acq_date, instruments.get(instrument_ref),
                               experimenters.get(experimenter_ref)))
    return OmeDocument(tuple(images), tuple(instruments.values()),
                       tuple(experimenters.values()))


def parse_sidecar(text: str) -> list:
    """Parse a TSV sidecar into :class:`EmAnnotation` records.

    Rows end at CRLF, CR or LF; any other character, such as U+0085 or
    U+2028, is part of its cell.  Phenotypes are split at ``;`` and
    trimmed of spaces and tabs only.  The header must match SIDECAR_COLUMNS
    exactly, and no cell may hold a lone surrogate, which UTF-8 cannot
    encode.  A voltage or wavelength is read, like every numeric value, as
    the range of its ontology row (``accelerationVoltage`` or
    ``electronWavelength``) within that row's bounds: an ``xsd:decimal`` in
    ASCII digits, with an optional sign, fraction and exponent and spaces
    around it, whose leading digit's exponent is at most
    DECIMAL_EXPONENT_MAX in size.
    Every fault raises :class:`BadValueError` naming its row and column.
    """
    lines = tsv_lines(text)
    if lines == [""]:
        raise BadHeaderError("empty sidecar, expected a header row")
    header = lines[0].split("\t")
    for name in header:
        if name not in SIDECAR_COLUMNS:
            raise UnknownColumnError(name)
    if tuple(header) != SIDECAR_COLUMNS:
        raise BadHeaderError(
            f"header {header!r} is not the required column list")

    records = []
    seen = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if line == "":
            continue
        cells = line.split("\t")
        if len(cells) != len(SIDECAR_COLUMNS):
            raise BadValueError(lineno, "row",
                                f"expected {len(SIDECAR_COLUMNS)} cells, found {len(cells)}")
        bad = SURROGATE_RE.search(line)
        if bad:
            column = SIDECAR_COLUMNS[line.count("\t", 0, bad.start())]
            raise BadValueError(lineno, column, f"lone surrogate {bad.group()!r}")
        (image_id, sample_id, container, strain, stain,
         voltage, gun, wavelength, phenotypes) = cells
        if not image_id:
            raise BadValueError(lineno, "image_id", "must not be empty")
        if image_id in seen:
            raise DuplicateImageIdError(image_id)
        seen.add(image_id)
        if not sample_id:
            raise BadValueError(lineno, "sample_id", "must not be empty")
        if strain and not _CURIE_RE.match(strain):
            raise BadValueError(lineno, "strain_id",
                                f"{strain!r} is not a prefix:localId CURIE")
        # an empty cell is None: a number's cell is tested as text, before it
        # is read, since Decimal("0") is falsy too
        voltage = (_number(voltage, _VOLTAGE, BadValueError, lineno, "voltage_kv")
                   if voltage else None)
        wavelength = (_number(wavelength, _WAVELENGTH, BadValueError, lineno, "wavelength_pm")
                      if wavelength else None)
        # only space and tab are trimmed: any other character is data, as in
        # every other cell
        phenotypes = tuple(
            p for p in (c.strip(" \t") for c in phenotypes.split(";")) if p
        )
        records.append(EmAnnotation(
            image_id, sample_id, container or None, strain or None, stain or None,
            voltage, gun or None, wavelength, phenotypes))
    return records
