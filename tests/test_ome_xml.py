import re
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ome_rdf import ome_xml
from ome_rdf.errors import (
    BadHeaderError,
    BadValueError,
    DanglingReferenceError,
    DuplicateIdError,
    DuplicateImageIdError,
    InvalidDimensionError,
    InvalidValueError,
    MalformedXmlError,
    MissingRequiredFieldError,
    OmeRdfError,
    UnknownColumnError,
)
from ome_rdf.namespaces import XSD_INTEGER, XSD_STRING
from ome_rdf.ome_xml import (
    EmAnnotation,
    InstrumentKind,
    OmeDocument,
    OmeExperimenter,
    OmeImage,
    OmeInstrument,
    SIDECAR_COLUMNS,
    parse_ome_document,
    parse_sidecar,
)
from ome_rdf.ontology import build_core_ontology

DATA = Path(__file__).parent / "data"

HEADER = "\t".join(SIDECAR_COLUMNS)


def doc(body):
    return f'<OME xmlns="http://www.openmicroscopy.org/Schemas/OME/2015-01">{body}</OME>'


IMG = (
    '<Image ID="{id}" Name="n">'
    '<Pixels SizeX="512" SizeY="512" SizeZ="{z}" SizeC="1" SizeT="1"/>'
    "</Image>"
)
# an image whose AcquisitionDate is the placeholder
DATED = (
    '<Image ID="I" Name="n"><AcquisitionDate>{}</AcquisitionDate>'
    '<Pixels SizeX="1" SizeY="1" SizeZ="1" SizeC="1" SizeT="1"/></Image>'
)

NON_FINITE = ["NaN", "sNaN", "Infinity", "-Infinity"]
# exponents beyond DECIMAL_EXPONENT_MAX: written out in full, each takes
# 100 bytes to gigabytes, or fails with MemoryError
HUGE_EXPONENT = ["1E+999999999", "1E-999999999", "0E-999999999",
                 "1E+999999999999999999", "1E+101", "1E-101"]
# not decimals, and decimals that are not > 0
NOT_POSITIVE_DECIMAL = ["abc", "", "1,5", "0", "-0", "0E+5", "-0.001"]
# what int() or Decimal() read but the ASCII forms do not: underscores,
# other scripts' digits, and Unicode spaces around the digits
NOT_ASCII_NUMBER = ["1_024", "\u0661\u0660\u0662\u0664", "\uff11\uff10", "1024\u3000",
                    "\u20031024", "\xa01024", "1024\x85"]
NOT_ASCII_DECIMAL = ["0_5", "\u0660.\u0665", "0.5\u3000", "\xa00.5", "1e1_0"]


# (sidecar column or Pixels attribute, ontology property, record field)
SIDECAR_ROWS = [("voltage_kv", "accelerationVoltage", "acceleration_voltage_kv"),
                ("wavelength_pm", "electronWavelength", "electron_wavelength_pm")]
PIXELS_ROWS = [("SizeX", "sizeX", "size_x"), ("SizeY", "sizeY", "size_y"),
               ("SizeZ", "sizeZ", "size_z"), ("SizeC", "sizeC", "size_c"),
               ("SizeT", "sizeT", "size_t"), ("PhysicalSizeX", "physicalSizeX", "physical_size_x"),
               ("PhysicalSizeY", "physicalSizeY", "physical_size_y")]


def _bound_cases(rows):
    """(where, property, field, value, kept) just below, at and just above
    each bound of the ontology's properties that ``rows`` read: a step of 1
    for an integer row, 0.001 for a decimal row."""
    core = build_core_ontology()
    for where, label, field in rows:
        prop = core.property_by_label(label)
        integer = prop.range == XSD_INTEGER
        step = Decimal(1) if integer else Decimal("0.001")
        values = [(prop.min_exclusive - step, False), (prop.min_exclusive, False),
                  (prop.min_exclusive + step, True)]
        if prop.max_inclusive is not None:
            values += [(prop.max_inclusive, True), (prop.max_inclusive + step, False)]
        else:
            # no upper bound in the row, so none in the reader either
            values.append((Decimal(2 ** 63) if integer else Decimal("1E+99"), True))
        for value, kept in values:
            yield pytest.param(where, label, field, value, kept, id=f"{where}={value}")


BOUND_CASES = list(_bound_cases(SIDECAR_ROWS))
PIXELS_BOUND_CASES = list(_bound_cases(PIXELS_ROWS))


class TestParseOmeDocument:
    def test_minimal_document(self):
        parsed = parse_ome_document((DATA / "minimal.ome.xml").read_text())
        assert len(parsed.images) == 1
        img = parsed.images[0]
        assert img.id == "IMG-MIN"
        assert (img.size_x, img.size_y, img.size_z,
                img.size_c, img.size_t) == (512, 512, 1, 1, 1)
        assert img.acquisition_date is None
        assert img.instrument is None and img.experimenter is None

    def test_golden_document_resolves_refs(self):
        parsed = parse_ome_document((DATA / "golden.ome.xml").read_text())
        (img,) = parsed.images
        assert img.instrument.kind is InstrumentKind.ELECTRON
        assert img.instrument.model == "SEM-1400"
        assert img.experimenter.name == "A. Imager"
        assert img.physical_size_x == Decimal("0.004")
        assert img.acquisition_date == "2015-01-20T10:30:00Z"

    def test_zero_dimension_rejected(self):
        with pytest.raises(InvalidDimensionError):
            parse_ome_document(doc(IMG.format(id="I", z="0")))

    def test_non_integer_dimension_rejected(self):
        with pytest.raises(InvalidDimensionError):
            parse_ome_document(doc(IMG.format(id="I", z="abc")))

    @pytest.mark.parametrize("attr", ["PhysicalSizeX", "PhysicalSizeY"])
    @pytest.mark.parametrize("raw", NON_FINITE + HUGE_EXPONENT + NOT_POSITIVE_DECIMAL)
    def test_bad_physical_size_rejected(self, attr, raw):
        body = (
            '<Image ID="I" Name="n">'
            f'<Pixels SizeX="1" SizeY="1" SizeZ="1" SizeC="1" SizeT="1" {attr}="{raw}"/>'
            "</Image>"
        )
        with pytest.raises(InvalidDimensionError) as err:
            parse_ome_document(doc(body))
        assert err.value.path == f"/OME/Image[I]/Pixels@{attr}"

    @pytest.mark.parametrize("raw", NOT_ASCII_NUMBER)
    def test_non_ascii_integer_rejected(self, raw):
        with pytest.raises(InvalidDimensionError, match="is not an integer") as err:
            parse_ome_document(doc(IMG.format(id="I", z=raw)))
        assert err.value.path == "/OME/Image[I]/Pixels@SizeZ"

    @pytest.mark.parametrize("raw", [" 7 ", "+7", "007", "&#9;7&#10;", "&#13;7"])
    def test_ascii_integer_forms_accepted(self, raw):
        (img,) = parse_ome_document(doc(IMG.format(id="I", z=raw))).images
        assert img.size_z == 7

    @pytest.mark.parametrize("raw", NOT_ASCII_NUMBER + NOT_ASCII_DECIMAL)
    def test_non_ascii_physical_size_rejected(self, raw):
        body = ('<Image ID="I" Name="n"><Pixels SizeX="1" SizeY="1" SizeZ="1" SizeC="1" '
                f'SizeT="1" PhysicalSizeX="{raw}"/></Image>')
        with pytest.raises(InvalidDimensionError, match="is not a decimal") as err:
            parse_ome_document(doc(body))
        assert err.value.path == "/OME/Image[I]/Pixels@PhysicalSizeX"

    @pytest.mark.parametrize("raw", [" 0.5 ", "+0.5", ".5", "5E-1", "0.05e+1", "&#9;0.5"])
    def test_ascii_decimal_forms_accepted(self, raw):
        body = ('<Image ID="I" Name="n"><Pixels SizeX="1" SizeY="1" SizeZ="1" SizeC="1" '
                f'SizeT="1" PhysicalSizeX="{raw}"/></Image>')
        (img,) = parse_ome_document(doc(body)).images
        assert img.physical_size_x == Decimal("0.5")

    @pytest.mark.parametrize("attr, label, field, value, kept", PIXELS_BOUND_CASES)
    def test_bounds_are_the_ontology_bounds(self, attr, label, field, value, kept):
        core = build_core_ontology()
        # every other size just inside its row's lower bound
        sizes = {a: core.property_by_label(lb).min_exclusive + 1 for a, lb, _ in PIXELS_ROWS[:5]}
        sizes[attr] = value
        body = " ".join(f'{a}="{v}"' for a, v in sizes.items())
        text = doc(f'<Image ID="I" Name="n"><Pixels {body}/></Image>')
        if kept:
            (img,) = parse_ome_document(text).images
            assert getattr(img, field) == value
        else:
            with pytest.raises(InvalidDimensionError, match=label) as err:
                parse_ome_document(text)
            assert err.value.path == f"/OME/Image[I]/Pixels@{attr}"

    def test_every_bounded_row_is_read(self):
        core = build_core_ontology()
        bounded = {p.label for p in core.properties
                   if p.min_exclusive is not None or p.max_inclusive is not None}
        assert bounded == {label for _, label, _ in SIDECAR_ROWS + PIXELS_ROWS}

    def test_reader_holds_the_registry_properties(self):
        core = build_core_ontology()
        held = [prop for _, prop in ome_xml._PIXELS_ATTRS]
        held += [ome_xml._VOLTAGE, ome_xml._WAVELENGTH]
        assert [p.label for p in held] == [label for _, label, _ in PIXELS_ROWS + SIDECAR_ROWS]
        assert all(p is core.property_by_label(p.label) for p in held)

    def test_dangling_instrument_reference(self):
        body = (
            '<Image ID="I" Name="n"><InstrumentRef ID="I9"/>'
            '<Pixels SizeX="1" SizeY="1" SizeZ="1" SizeC="1" SizeT="1"/></Image>'
        )
        with pytest.raises(DanglingReferenceError) as err:
            parse_ome_document(doc(body))
        assert err.value.ref_id == "I9"

    @pytest.mark.parametrize("text, cls, message", [
        ("<Foo/>", MalformedXmlError, "root element is 'Foo', expected OME"),
        (doc('<Instrument ID="I1"/><Instrument ID="I1" Kind="Electron"/>'),
         DuplicateIdError, "duplicate id 'I1'"),
        (doc('<Experimenter ID="E1" Name="a"/><Experimenter ID="E1" Name="b"/>'),
         DuplicateIdError, "duplicate id 'E1'"),
        (doc(IMG.replace(' SizeC="1"', "").format(id="I", z="1")),
         MissingRequiredFieldError, "missing required field at /OME/Image[I]/Pixels@SizeC"),
        (doc('<Experimenter ID="E1" Name="a"/>'
             + IMG.replace("<Pixels", '<ExperimenterRef ID="E9"/><Pixels').format(id="I", z="1")),
         DanglingReferenceError, "reference to undeclared id 'E9'"),
    ], ids=["root", "instrument-id", "experimenter-id", "size-c", "experimenter-ref"])
    def test_document_faults(self, text, cls, message):
        with pytest.raises(cls) as err:
            parse_ome_document(text)
        assert str(err.value) == message

    def test_missing_pixels(self):
        with pytest.raises(MissingRequiredFieldError):
            parse_ome_document(doc('<Image ID="I" Name="n"/>'))

    def test_missing_name(self):
        with pytest.raises(MissingRequiredFieldError):
            parse_ome_document(doc(
                '<Image ID="I"><Pixels SizeX="1" SizeY="1" SizeZ="1" SizeC="1" SizeT="1"/></Image>'
            ))

    def test_duplicate_image_id(self):
        with pytest.raises(DuplicateIdError):
            parse_ome_document(doc(IMG.format(id="I", z="1") + IMG.format(id="I", z="1")))

    def test_timestamp_without_timezone_rejected(self):
        with pytest.raises(InvalidValueError):
            parse_ome_document(doc(DATED.format("2015-01-20T10:30:00")))

    @pytest.mark.parametrize("stamp", [
        "2020-01-01 00:00:00+00:00",  # space separator
        "20200101T000000Z",  # basic format
        "2020-W01-1T00:00:00Z",  # week date
        "2020-01-01T00+00:00",  # no minutes or seconds
        "2020-01-01T00:00+00:00",  # no seconds
        "2020-01-01T00:00:00,5+00:00",  # comma before the fraction
        "2020-01-01T00:00:00+15:00",  # offset beyond 14:00
        "2020-02-30T00:00:00Z",  # no such day
    ])
    def test_timestamp_outside_xsd_datetime_rejected(self, stamp):
        with pytest.raises(InvalidValueError):
            parse_ome_document(doc(DATED.format(stamp)))

    @pytest.mark.parametrize("stamp", [
        "2020-01-01T00:00:00Z", "2020-01-01T09:30:00+09:00",
        "2020-12-31T23:59:59-05:00", "2020-01-01T00:00:00.25+00:00",
    ])
    def test_xsd_datetime_timestamp_kept(self, stamp):
        (image,) = parse_ome_document(doc(DATED.format(stamp))).images
        assert image.acquisition_date == stamp

    @pytest.mark.parametrize("space", ["\xa0", "\x85", "\u2028", "\u3000"])
    @pytest.mark.parametrize("where", ["before", "after"])
    def test_timestamp_not_trimmed_of_other_space(self, space, where):
        stamp = "2015-01-20T10:30:00Z"
        raw = space + stamp if where == "before" else stamp + space
        with pytest.raises(InvalidValueError) as err:
            parse_ome_document(doc(DATED.format(raw)))
        assert err.value.path == "/OME/Image[I]/AcquisitionDate"
        assert str(err.value).startswith(f"/OME/Image[I]/AcquisitionDate: {raw!r} is not")

    PIXELS = '<Pixels SizeX="1" SizeY="1" SizeZ="1" SizeC="1" SizeT="1"/>'

    # the schema allows one Pixels and at most one of each other child: the
    # second raises, and the first, even when faulty, is never read
    @pytest.mark.parametrize("tag, first, second", [
        ("Pixels", PIXELS.replace('SizeX="1"', 'SizeX="0"'), PIXELS),
        ("AcquisitionDate", "<AcquisitionDate>2020-01-01T00:00:00Z</AcquisitionDate>",
         "<AcquisitionDate>2021-01-01T00:00:00Z</AcquisitionDate>"),
        ("InstrumentRef", '<InstrumentRef ID="nope"/>', '<InstrumentRef ID="I1"/>'),
        ("ExperimenterRef", '<ExperimenterRef ID="E1"/>', '<ExperimenterRef ID="E1"/>'),
    ])
    def test_repeated_image_child(self, tag, first, second):
        def image(*children):
            pixels = "" if tag == "Pixels" else self.PIXELS
            return doc('<Instrument ID="I1"/><Experimenter ID="E1" Name="e"/>'
                       f'<Image ID="I" Name="n">{"".join(children)}{pixels}</Image>')

        assert len(parse_ome_document(image(second)).images) == 1
        with pytest.raises(InvalidValueError) as err:
            parse_ome_document(image(first, second))
        assert err.value.code == "InvalidValue"
        assert err.value.path == f"/OME/Image[I]/{tag}"
        assert str(err.value) == f"/OME/Image[I]/{tag}: appears more than once"

    def test_bad_instrument_kind(self):
        with pytest.raises(InvalidValueError):
            parse_ome_document(doc('<Instrument ID="I1" Kind="Sonic"/>' + IMG.format(id="I", z="1")))

    @pytest.mark.parametrize("raw, kind", [
        ("OPTICAL", InstrumentKind.OPTICAL), ("Electron", InstrumentKind.ELECTRON),
        ("eLeCtRoN", InstrumentKind.ELECTRON),
    ])
    def test_instrument_kind_ignores_case(self, raw, kind):
        parsed = parse_ome_document(
            doc(f'<Instrument ID="I1" Kind="{raw}"/>' + IMG.format(id="I", z="1")))
        assert parsed.instruments[0].kind is kind

    def test_bad_instrument_kind_names_its_text(self):
        with pytest.raises(InvalidValueError) as err:
            parse_ome_document(doc('<Instrument ID="I1" Kind="Sonic"/>' + IMG.format(id="I", z="1")))
        assert err.value.path == "/OME/Instrument[I1]@Kind"
        assert str(err.value) == "/OME/Instrument[I1]@Kind: 'Sonic' is not Optical or Electron"

    def test_instrument_kind_defaults_to_optical(self):
        parsed = parse_ome_document(doc('<Instrument ID="I1"/>' + IMG.format(id="I", z="1")))
        assert parsed.instruments[0].kind is InstrumentKind.OPTICAL

    def test_malformed_xml(self):
        with pytest.raises(MalformedXmlError):
            parse_ome_document("<OME><Image></OME>")

    @pytest.mark.parametrize("body", [
        IMG.replace('Name="n"', 'Name="n\ud800"').format(id="I", z="1"),
        '<Experimenter ID="E1" Name="\udfff"/>',
        "<!-- \ud800 -->",
    ])
    def test_lone_surrogate_is_malformed_xml(self, body):
        with pytest.raises(MalformedXmlError):
            parse_ome_document(doc(body))

    def test_fixture_corpus_never_crashes(self):
        # totality over the fixture corpus: typed outcome for every file
        for path in sorted(DATA.glob("*.xml")):
            try:
                parse_ome_document(path.read_text())
            except (MalformedXmlError, DuplicateIdError, DanglingReferenceError,
                    MissingRequiredFieldError, InvalidDimensionError,
                    InvalidValueError):
                pass


class TestParseSidecar:
    def test_header_only(self):
        assert parse_sidecar(HEADER + "\n") == []

    def test_golden_row_field_by_field(self):
        (ann,) = parse_sidecar((DATA / "golden.ann.tsv").read_text())
        assert ann == EmAnnotation(
            image_id="IMG001",
            sample_id="S1",
            container_id="C1",
            strain_id="rikenbrc_mouse:RBRC001",
            staining_method="osmium",
            acceleration_voltage_kv=Decimal("5.0"),
            electron_gun_type="field emission",
            electron_wavelength_pm=Decimal("17.3"),
            phenotype_observations=("liver cells", "tissue structure"),
        )

    def test_blank_cells_mean_absent(self):
        row = "IMG1\tS1\t\t\t\t\t\t\t"
        (ann,) = parse_sidecar(HEADER + "\n" + row + "\n")
        assert ann.container_id is None
        assert ann.strain_id is None
        assert ann.acceleration_voltage_kv is None
        assert ann.phenotype_observations == ()

    def test_duplicate_image_id(self):
        rows = "IMG1\tS1\t\t\t\t\t\t\t\nIMG1\tS2\t\t\t\t\t\t\t\n"
        with pytest.raises(DuplicateImageIdError):
            parse_sidecar(HEADER + "\n" + rows)

    def test_unknown_column(self):
        with pytest.raises(UnknownColumnError):
            parse_sidecar(HEADER + "\tcolor\n")

    def test_reordered_header_is_bad(self):
        cols = list(SIDECAR_COLUMNS)
        cols[0], cols[1] = cols[1], cols[0]
        with pytest.raises(BadHeaderError):
            parse_sidecar("\t".join(cols) + "\n")

    def test_missing_column_is_bad(self):
        with pytest.raises(BadHeaderError):
            parse_sidecar("\t".join(SIDECAR_COLUMNS[:-1]) + "\n")

    @pytest.mark.parametrize("column", ["image_id", "sample_id"])
    def test_empty_key_cell_rejected(self, column):
        cells = ["IMG1", "S1"] + [""] * (len(SIDECAR_COLUMNS) - 2)
        cells[SIDECAR_COLUMNS.index(column)] = ""
        with pytest.raises(BadValueError, match="must not be empty") as err:
            parse_sidecar(HEADER + "\n" + "\t".join(cells) + "\n")
        assert (err.value.row, err.value.column) == (2, column)

    def test_wrong_cell_count(self):
        with pytest.raises(BadValueError):
            parse_sidecar(HEADER + "\nIMG1\tS1\n")

    def test_non_numeric_voltage(self):
        row = "IMG1\tS1\t\t\t\tfast\t\t\t"
        with pytest.raises(BadValueError):
            parse_sidecar(HEADER + "\n" + row)

    def test_out_of_range_voltage_rejected(self):
        row = "IMG1\tS1\t\t\t\t1500\t\t\t"
        with pytest.raises(BadValueError):
            parse_sidecar(HEADER + "\n" + row)

    @pytest.mark.parametrize("column, label, field, value, kept", BOUND_CASES)
    def test_bounds_are_the_ontology_bounds(self, column, label, field, value, kept):
        cells = ["IMG1", "S1"] + [""] * (len(SIDECAR_COLUMNS) - 2)
        cells[SIDECAR_COLUMNS.index(column)] = str(value)
        text = HEADER + "\n" + "\t".join(cells) + "\n"
        if kept:
            (ann,) = parse_sidecar(text)
            assert getattr(ann, field) == value
        else:
            with pytest.raises(BadValueError, match=label) as err:
                parse_sidecar(text)
            assert (err.value.row, err.value.column) == (2, column)

    @pytest.mark.parametrize("column", ["voltage_kv", "wavelength_pm"])
    @pytest.mark.parametrize("raw", NON_FINITE + HUGE_EXPONENT)
    def test_non_finite_or_huge_decimal_rejected(self, column, raw):
        cells = ["IMG1", "S1"] + [""] * (len(SIDECAR_COLUMNS) - 2)
        cells[SIDECAR_COLUMNS.index(column)] = raw
        with pytest.raises(BadValueError) as err:
            parse_sidecar(HEADER + "\n" + "\t".join(cells) + "\n")
        assert err.value.column == column

    @pytest.mark.parametrize("column", ["voltage_kv", "wavelength_pm"])
    @pytest.mark.parametrize("raw", ["fast", "1,5", "5 kV"])
    def test_not_a_decimal_rejected(self, column, raw):
        cells = ["IMG1", "S1"] + [""] * (len(SIDECAR_COLUMNS) - 2)
        cells[SIDECAR_COLUMNS.index(column)] = raw
        with pytest.raises(BadValueError, match="is not a decimal") as err:
            parse_sidecar(HEADER + "\n" + "\t".join(cells) + "\n")
        assert (err.value.row, err.value.column) == (2, column)

    @pytest.mark.parametrize("column", ["voltage_kv", "wavelength_pm"])
    @pytest.mark.parametrize("raw", NOT_ASCII_NUMBER + NOT_ASCII_DECIMAL + NON_FINITE)
    def test_non_ascii_decimal_rejected(self, column, raw):
        cells = ["IMG1", "S1"] + [""] * (len(SIDECAR_COLUMNS) - 2)
        cells[SIDECAR_COLUMNS.index(column)] = raw
        with pytest.raises(BadValueError, match="is not a decimal") as err:
            parse_sidecar(HEADER + "\n" + "\t".join(cells) + "\n")
        assert (err.value.row, err.value.column) == (2, column)

    @pytest.mark.parametrize("raw", [" 5.0 ", "+5.0", "5.", "5E0", "0.5e1"])
    def test_ascii_decimal_cells_accepted(self, raw):
        cells = ["IMG1", "S1"] + [""] * (len(SIDECAR_COLUMNS) - 2)
        cells[SIDECAR_COLUMNS.index("voltage_kv")] = raw
        (ann,) = parse_sidecar(HEADER + "\n" + "\t".join(cells) + "\n")
        assert ann.acceleration_voltage_kv == Decimal(5)

    @pytest.mark.parametrize("column", SIDECAR_COLUMNS)
    def test_lone_surrogate_rejected(self, column):
        good = ["IMG2", "S1", "C1", "rikenbrc_mouse:RBRC001", "osmium", "5.0",
                "field emission", "17.3", "liver cells"]
        bad = ["IMG3"] + good[1:]
        bad[SIDECAR_COLUMNS.index(column)] += "\ud800"
        text = HEADER + "\n" + "\t".join(good) + "\n" + "\t".join(bad) + "\n"
        with pytest.raises(BadValueError, match="lone surrogate") as err:
            parse_sidecar(text)
        assert (err.value.row, err.value.column) == (3, column)

    @pytest.mark.parametrize("char", [
        "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_rows_end_only_at_cr_or_lf(self, char):
        good = f"IMG1\tS1\t\t\tst{char}ain\t\tgun{char}\t\tcells{char}x"
        (ann,) = parse_sidecar(HEADER + "\n" + good + "\n")
        assert ann.staining_method == f"st{char}ain"
        assert ann.electron_gun_type == f"gun{char}"
        # CRLF and CR end rows too; the blank row between counts, so this is row 4
        bad = "IMG2\tS1\t\t\t\tfast\t\t\t"
        with pytest.raises(BadValueError) as err:
            parse_sidecar(HEADER + "\r\n" + good + "\r\r" + bad + "\r")
        assert (err.value.row, err.value.column) == (4, "voltage_kv")

    def test_phenotypes_trimmed_of_space_and_tab_only(self):
        row = "IMG1\tS1\t\t\tst\x85\t\t\t\t\xa0liver\x85;  cells ; ;\x85"
        (ann,) = parse_sidecar(HEADER + "\n" + row + "\n")
        assert ann.staining_method == "st\x85"
        assert ann.phenotype_observations == ("\xa0liver\x85", "cells", "\x85")

    def test_bad_strain_curie(self):
        row = "IMG1\tS1\t\tNotACurie\t\t\t\t\t"
        with pytest.raises(BadValueError):
            parse_sidecar(HEADER + "\n" + row)

    def test_empty_sidecar_is_bad_header(self):
        with pytest.raises(BadHeaderError):
            parse_sidecar("")


def pixels_image(i, attrs):
    """Image ``I{i}`` whose Pixels carry the attribute texts of ``attrs``,
    ``None`` for absent; every required size not given is 1."""
    sizes = dict.fromkeys(["SizeX", "SizeY", "SizeZ", "SizeC", "SizeT"], "1") | attrs
    body = " ".join(f'{a}="{v}"' for a, v in sizes.items() if v is not None)
    return f'<Image ID="I{i}" Name="n"><Pixels {body}/></Image>'


def pixels_doc(*attrs):
    """A document of images ``I0`` ..., one per dict of attribute texts."""
    return doc("".join(pixels_image(i, a) for i, a in enumerate(attrs)))


def sidecar_row(i, volt, wave):
    return f"IMG{i}\tS1\t\t\t\t{volt}\t\t{wave}\t\n"


def sidecar(*rows):
    """A sidecar of rows ``IMG0`` ..., one per (voltage, wavelength) pair of texts."""
    return HEADER + "\n" + "".join(sidecar_row(i, *row) for i, row in enumerate(rows))


class TestRepeatedTexts:
    """A text repeated on several images or rows, or read by several
    attributes or columns, is read at each place it stands: a faulty one
    raises at its first place, with its class, code and message."""

    @pytest.mark.parametrize("attrs, message", [
        ([{"PhysicalSizeX": "5.0"}, {"PhysicalSizeX": "abc"}, {"PhysicalSizeX": "abc"}],
         "/OME/Image[I1]/Pixels@PhysicalSizeX: 'abc' is not a decimal"),
        ([{"SizeX": "2"}, {"SizeX": "0"}, {"SizeX": "2"}, {"SizeX": "0"}],
         "/OME/Image[I1]/Pixels@SizeX: 0 violates sizeX > 0"),
        ([{"SizeZ": "x"}, {"SizeZ": "x"}],
         "/OME/Image[I0]/Pixels@SizeZ: 'x' is not an integer"),
        # one text, read by two attributes of different ranges
        ([{"PhysicalSizeY": "0.5"}, {"SizeC": "0.5"}],
         "/OME/Image[I1]/Pixels@SizeC: '0.5' is not an integer"),
    ], ids=["not-a-decimal", "out-of-bounds", "first-image", "other-attribute"])
    def test_repeated_faulty_pixels_text_names_the_first(self, attrs, message):
        with pytest.raises(InvalidDimensionError) as err:
            parse_ome_document(pixels_doc(*attrs))
        assert (err.value.code, str(err.value)) == ("InvalidDimension", message)

    @pytest.mark.parametrize("rows, message", [
        ([("5.0", ""), ("fast", ""), ("fast", "")],
         "row 3, column 'voltage_kv': 'fast' is not a decimal"),
        ([("", "-1"), ("", "2"), ("", "-1")],
         "row 2, column 'wavelength_pm': -1 violates electronWavelength > 0"),
        # one text, read by two columns of different bounds
        ([("", "1500"), ("1500", "1500")],
         "row 3, column 'voltage_kv': 1500 violates accelerationVoltage <= 1000"),
    ], ids=["not-a-decimal", "out-of-bounds", "other-column"])
    def test_repeated_faulty_sidecar_text_names_the_first(self, rows, message):
        with pytest.raises(BadValueError) as err:
            parse_sidecar(sidecar(*rows))
        assert (err.value.code, str(err.value)) == ("BadValue", message)

    def test_one_text_in_two_attributes_takes_each_range(self):
        (img,) = parse_ome_document(pixels_doc({"SizeX": "7", "PhysicalSizeX": "7"})).images
        assert type(img.size_x) is int and type(img.physical_size_x) is Decimal


def outcome(parse, text):
    """What ``parse`` makes of ``text``: the repr of its records, which
    tells ``Decimal("5.0")`` from ``Decimal("5.00")``, or its error."""
    try:
        result = parse(text)
    except OmeRdfError as e:
        return type(e), e.code, str(e)
    return [repr(r) for r in (result.images if isinstance(result, OmeDocument) else result)]


def outcome_of_parts(parse, texts):
    """The outcome of one text holding all of ``texts``' records, as read from
    each record's own text: the records in order, or the first error."""
    records = []
    for text in texts:
        one = outcome(parse, text)
        if isinstance(one, tuple):
            return one
        records += one
    return records


# texts that each range takes: one value in several forms, and values that
# only some bounds take; and texts that some attribute or column rejects
INTEGER_POOL = ["5", "05", "+5", " 5 ", "1500"]
DECIMAL_POOL = INTEGER_POOL + ["5.0", "5.00", " 5.0", "0.5", "1E+1"]
FAULT_POOL = ["", "0", "-1", "abc", "0.5", "1500"]
ATTRS = [attr for attr, _, _ in PIXELS_ROWS]
# at most one fault per text: which record, which of its texts, and the fault
FAULT = st.one_of(st.none(), st.tuples(st.integers(0, 5), st.integers(0, 6),
                                       st.sampled_from(FAULT_POOL)))


@given(st.lists(st.fixed_dictionaries(
    {attr: st.sampled_from(INTEGER_POOL) for attr in ATTRS[:5]}
    | {attr: st.sampled_from(DECIMAL_POOL + [None]) for attr in ATTRS[5:]}),
    min_size=1, max_size=6), FAULT)
@settings(max_examples=150, deadline=None)
def test_pooled_pixels_parse_as_each_image_alone(attrs, fault):
    if fault is not None:
        i, attr, raw = fault
        attrs[i % len(attrs)][ATTRS[attr]] = raw
    alone = [doc(pixels_image(i, a)) for i, a in enumerate(attrs)]
    assert (outcome(parse_ome_document, pixels_doc(*attrs))
            == outcome_of_parts(parse_ome_document, alone))


@given(st.lists(st.lists(st.sampled_from(DECIMAL_POOL + [""]), min_size=2, max_size=2),
                min_size=1, max_size=6), FAULT)
@settings(max_examples=150, deadline=None)
def test_pooled_sidecar_cells_parse_as_each_row_alone(rows, fault):
    if fault is not None:
        i, column, raw = fault
        rows[i % len(rows)][column % 2] = raw
    # blank lines put each row at its row number in the whole sidecar
    alone = [HEADER + "\n" * (i + 1) + sidecar_row(i, *row) for i, row in enumerate(rows)]
    assert outcome(parse_sidecar, sidecar(*rows)) == outcome_of_parts(parse_sidecar, alone)


# the reader's row tables: the element each reads, its path in messages, and
# the record that holds its values
ROW_TABLES = [
    ("Instrument", ome_xml._INSTRUMENT_ATTRS, "/OME/Instrument[I1]", lambda d: d.instruments[0]),
    ("Experimenter", ome_xml._EXPERIMENTER_ATTRS, "/OME/Experimenter[E1]",
     lambda d: d.experimenters[0]),
    ("Image", ome_xml._IMAGE_ATTRS, "/OME/Image[I]", lambda d: d.images[0]),
    ("Pixels", ome_xml._PIXELS_ATTRS, "/OME/Image[I]/Pixels", lambda d: d.images[0]),
]
# what the reader has always required, which the rows must now say
REQUIRED = {("Image", "Name"), ("Experimenter", "Name")} | {
    ("Pixels", f"Size{d}") for d in "XYZCT"}


def row_tables_doc(tag, attr, raw):
    """A document that gives every attribute of the row tables a valid text,
    except ``tag``'s ``attr``, which is ``raw`` (``None``: absent)."""
    attrs = {t: {a: "s" if p.range == XSD_STRING else "1" for a, p in table}
             for t, table, _, _ in ROW_TABLES}
    attrs[tag][attr] = raw
    at = {t: "".join(f' {a}="{v}"' for a, v in texts.items() if v is not None)
          for t, texts in attrs.items()}
    return doc(f'<Instrument ID="I1"{at["Instrument"]}/>'
               f'<Experimenter ID="E1"{at["Experimenter"]}/>'
               f'<Image ID="I"{at["Image"]}><InstrumentRef ID="I1"/><ExperimenterRef ID="E1"/>'
               f'<Pixels{at["Pixels"]}/></Image>')


def _row_cases():
    for tag, table, path, record in ROW_TABLES:
        for attr, prop in table:
            # an empty text counts as absent on a string row only
            for raw in [None, ""] if prop.range == XSD_STRING else [None]:
                yield pytest.param(tag, attr, prop, path, record, raw,
                                   id=f"{tag}@{attr}-{'absent' if raw is None else 'empty'}")


@pytest.mark.parametrize("tag, attr, prop, path, record, raw", list(_row_cases()))
def test_the_rows_alone_decide_what_is_required(tag, attr, prop, path, record, raw):
    assert (prop.min_count >= 1) == ((tag, attr) in REQUIRED)
    text = row_tables_doc(tag, attr, raw)
    if prop.min_count >= 1:
        with pytest.raises(MissingRequiredFieldError) as err:
            parse_ome_document(text)
        assert err.value.path == f"{path}@{attr}"
    else:
        field = re.sub(r"(?<!^)(?=[A-Z])", "_", attr).lower()  # PhysicalSizeX: physical_size_x
        assert getattr(record(parse_ome_document(text)), field) == raw


class TestRecords:
    """The readers' records are typed tuples with the fields, order and
    defaults they had as frozen dataclasses."""

    @pytest.mark.parametrize("cls, fields, defaults", [
        (OmeInstrument, ("id", "kind", "model"), {"model": None}),
        (OmeExperimenter, ("id", "name", "email"), {"email": None}),
        (OmeImage, ("id", "name", "size_x", "size_y", "size_z", "size_c", "size_t",
                    "physical_size_x", "physical_size_y", "acquisition_date", "instrument",
                    "experimenter"),
         {"physical_size_x": None, "physical_size_y": None, "acquisition_date": None,
          "instrument": None, "experimenter": None}),
        (OmeDocument, ("images", "instruments", "experimenters"), {}),
        (EmAnnotation, ("image_id", "sample_id", "container_id", "strain_id",
                        "staining_method", "acceleration_voltage_kv", "electron_gun_type",
                        "electron_wavelength_pm", "phenotype_observations"),
         {"container_id": None, "strain_id": None, "staining_method": None,
          "acceleration_voltage_kv": None, "electron_gun_type": None,
          "electron_wavelength_pm": None, "phenotype_observations": ()}),
    ], ids=lambda v: v.__name__ if isinstance(v, type) else "")
    def test_fields_and_defaults(self, cls, fields, defaults):
        assert issubclass(cls, tuple)
        assert (cls._fields, cls._field_defaults) == (fields, defaults)

    def test_keyword_construction_equality_and_immutability(self):
        ann = EmAnnotation(image_id="I", sample_id="S", staining_method="osmium")
        assert ann == ("I", "S", None, None, "osmium", None, None, None, ())
        with pytest.raises(AttributeError):
            ann.sample_id = "T"
        changed = ann._replace(sample_id="T")
        assert (changed.sample_id, ann.sample_id) == ("T", "S")
