import pytest

from ome_rdf.errors import (
    IdPatternMismatchError,
    InvalidIriError,
    LinkRegistryError,
    MalformedCurieError,
    UnknownPrefixError,
)
from ome_rdf.links import LinkEntry, LinkRegistry
from ome_rdf.rdf import Iri


@pytest.fixture(scope="module")
def registry():
    return LinkRegistry.default()


class TestResolve:
    def test_riken_mouse_strain(self, registry):
        iri = registry.resolve("rikenbrc_mouse:RBRC00001")
        assert iri.value == "http://metadb.riken.jp/metadb/db/rikenbrc_mouse/RBRC00001"

    def test_unknown_prefix(self, registry):
        with pytest.raises(UnknownPrefixError):
            registry.resolve("nosuch:X1")

    def test_pattern_mismatch_on_whitespace(self, registry):
        with pytest.raises(IdPatternMismatchError):
            registry.resolve("rikenbrc_mouse:bad id")

    @pytest.mark.parametrize("curie", ["noseparator", ":x", "p:", ""])
    def test_malformed(self, registry, curie):
        with pytest.raises(MalformedCurieError):
            registry.resolve(curie)

    def test_injective_per_prefix(self, registry):
        ids = [f"RBRC{i:05d}" for i in range(50)]
        iris = {registry.resolve(f"rikenbrc_mouse:{i}").value for i in ids}
        assert len(iris) == len(ids)


class TestRegistryFile:
    def test_load_reads_a_file(self, tmp_path):
        path = tmp_path / "reg.tsv"
        path.write_text("demo\thttp://db.example/demo\t[0-9]{4}\n")
        reg = LinkRegistry.load(path)
        assert reg.resolve("demo:0042").value == "http://db.example/demo/0042"
        with pytest.raises(UnknownPrefixError):
            reg.resolve("rikenbrc_mouse:RBRC00001")

    def test_file_that_is_not_utf8_is_a_registry_error(self, tmp_path):
        path = tmp_path / "reg.tsv"
        path.write_bytes(b"demo\thttp://db.example/\xff\t[0-9]{4}\n")
        with pytest.raises(LinkRegistryError) as err:
            LinkRegistry.load(path)
        assert str(err.value).startswith(f"{path} is not UTF-8 text: ")
        assert err.value.code == "LinkRegistryError"

    def test_missing_file_is_an_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            LinkRegistry.load(tmp_path / "absent.tsv")

    def test_bad_line(self):
        with pytest.raises(LinkRegistryError):
            LinkRegistry.loads("justone\n")

    def test_bad_id_pattern(self):
        with pytest.raises(LinkRegistryError, match="^line 1: bad id pattern for 'demo': "):
            LinkRegistry.loads("demo\thttp://db.example/demo\t(\n")

    @pytest.mark.parametrize("bad_line, message, cause", [
        ("demo\tnot an iri\t.*", "missing scheme in 'not an iri'", InvalidIriError),
        ("Demo\thttp://db.example/demo\t.*", "bad prefix 'Demo'", LinkRegistryError),
        ("demo\thttp://db.example/demo\t[", "bad id pattern for 'demo': ", LinkRegistryError),
        ("ok\thttp://db.example/again\t.*", "duplicate prefix 'ok'", LinkRegistryError),
    ])
    def test_each_line_fault_names_its_line(self, bad_line, message, cause):
        text = "ok\thttp://db.example/ok\t.*\n" + bad_line + "\n"
        with pytest.raises(LinkRegistryError) as err:
            LinkRegistry.loads(text)
        assert str(err.value).startswith("line 2: " + message)
        assert err.value.code == "LinkRegistryError"
        assert type(err.value.__cause__) is cause
        assert str(err.value) == "line 2: " + str(err.value.__cause__)

    def test_leading_byte_order_mark_is_ignored(self):
        reg = LinkRegistry.loads("\ufeffdemo\thttp://db.example/demo\t[0-9]{4}\n")
        assert reg.resolve("demo:0042").value == "http://db.example/demo/0042"

    def test_entry_keeps_its_compiled_pattern(self):
        entry = LinkEntry("p", Iri("http://x.example/"), "[0-9]+")
        assert entry.id_regex.pattern == "[0-9]+"
        # the compiled form is derived: equality and repr see only the three cells
        assert entry == LinkEntry("p", Iri("http://x.example/"), "[0-9]+")
        assert "id_regex" not in repr(entry)

    def test_lines_end_only_at_cr_or_lf(self):
        good = "demo\thttp://db.example/demo\t[0-9]{4}\x85?"
        # the U+0085 stays in the pattern: the id matches it, and only the
        # IRI, where no space may stand, refuses it, so the CURIE is malformed
        reg = LinkRegistry.loads(good)
        assert reg.resolve("demo:1234").value == "http://db.example/demo/1234"
        with pytest.raises(MalformedCurieError, match="demo:1234") as err:
            reg.resolve("demo:1234\x85")
        assert isinstance(err.value.__cause__, InvalidIriError)
        # CRLF and CR end lines too, so the bad line is line 3
        text = good + "\r\nother\thttp://db.example/o\t.*\rjustone\n"
        with pytest.raises(LinkRegistryError) as err:
            LinkRegistry.loads(text)
        assert str(err.value).startswith("line 3: ")

    def test_blank_line_inside_is_bad(self):
        with pytest.raises(LinkRegistryError, match="^line 2: "):
            LinkRegistry.loads("demo\thttp://db.example/demo\t.*\n\nx\thttp://x.example\t.*\n")

    def test_bad_prefix(self):
        for prefix in ("Bad_Prefix", "p\n"):
            with pytest.raises(LinkRegistryError):
                LinkEntry(prefix, Iri("http://x.example/"), ".*")

    def test_duplicate_prefix(self):
        e = LinkEntry("p", Iri("http://x.example/"), ".*")
        with pytest.raises(LinkRegistryError):
            LinkRegistry([e, e])
