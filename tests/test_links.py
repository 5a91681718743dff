import pytest

from ome_rdf.errors import (
    IdPatternMismatchError,
    LinkRegistryError,
    MalformedCurieError,
    UnknownPrefixError,
)
from ome_rdf.links import (
    LinkCheckResult,
    LinkEntry,
    LinkRegistry,
    check_links,
)
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
    def test_roundtrip_byte_identical(self, tmp_path):
        path = tmp_path / "reg.tsv"
        text = (
            "rikenbrc_mouse\thttp://metadb.riken.jp/metadb/db/rikenbrc_mouse\t[A-Za-z0-9]+\n"
            "demo\thttp://db.example/demo\t[0-9]{4}\n"
        )
        path.write_text(text)
        reg = LinkRegistry.load(path)
        out = tmp_path / "out.tsv"
        reg.save(out)
        assert out.read_bytes() == path.read_bytes()

    def test_bad_line(self):
        with pytest.raises(LinkRegistryError):
            LinkRegistry.loads("justone\n")

    def test_bad_prefix(self):
        with pytest.raises(LinkRegistryError):
            LinkEntry("Bad_Prefix", Iri("http://x.example/"), ".*")

    def test_duplicate_prefix(self):
        e = LinkEntry("p", Iri("http://x.example/"), ".*")
        with pytest.raises(LinkRegistryError):
            LinkRegistry([e, e])


class TestCheckLinks:
    IRIS = [Iri("http://a.example/1"), Iri("http://a.example/2"), Iri("http://a.example/3")]

    def test_offline_all_not_checked(self):
        results = check_links(self.IRIS, fetcher=None)
        assert [r.status for r in results] == ["notChecked"] * 3
        assert all(r.http_status is None for r in results)

    def test_fake_fetcher_ok(self):
        results = check_links(self.IRIS, fetcher=lambda iri: 200)
        assert all(r.status == "ok" and r.http_status == 200 for r in results)

    def test_timeout_maps_to_unreachable(self):
        def fetch(iri):
            raise TimeoutError("too slow")

        results = check_links(self.IRIS, fetcher=fetch)
        assert [r.status for r in results] == ["unreachable"] * 3

    def test_http_404_unreachable_with_status(self):
        results = check_links([self.IRIS[0]], fetcher=lambda iri: 404)
        assert results[0].status == "unreachable"
        assert results[0].http_status == 404

    def test_order_preserved_under_parallelism(self):
        import time

        def fetch(iri):
            # later inputs answer sooner
            time.sleep(0.03 if iri.endswith("1") else 0.0)
            return 200

        results = check_links(self.IRIS, fetcher=fetch, parallelism=3)
        assert [r.iri for r in results] == self.IRIS

    def test_not_checked_forbids_status(self):
        with pytest.raises(ValueError):
            LinkCheckResult(self.IRIS[0], "notChecked", 200)
