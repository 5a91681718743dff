from decimal import Decimal
from pathlib import Path

import pytest

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
    UnknownColumnError,
)
from ome_rdf.namespaces import XSD_INTEGER
from ome_rdf.ome_xml import (
    EmAnnotation,
    InstrumentKind,
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
        assert (img.pixels.size_x, img.pixels.size_y, img.pixels.size_z,
                img.pixels.size_c, img.pixels.size_t) == (512, 512, 1, 1, 1)
        assert img.acquisition_date is None
        assert img.instrument is None and img.experimenter is None

    def test_golden_document_resolves_refs(self):
        parsed = parse_ome_document((DATA / "golden.ome.xml").read_text())
        (img,) = parsed.images
        assert img.instrument.kind is InstrumentKind.ELECTRON
        assert img.instrument.model == "SEM-1400"
        assert img.experimenter.name == "A. Imager"
        assert img.pixels.physical_size_x == Decimal("0.004")
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
        assert img.pixels.size_z == 7

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
        assert img.pixels.physical_size_x == Decimal("0.5")

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
            assert getattr(img.pixels, field) == value
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
        held = [prop for _, prop, _ in ome_xml._PIXELS_ATTRS]
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

    def test_bad_instrument_kind(self):
        with pytest.raises(InvalidValueError):
            parse_ome_document(doc('<Instrument ID="I1" Kind="Sonic"/>' + IMG.format(id="I", z="1")))

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
