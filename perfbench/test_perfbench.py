"""Fast checks of the benchmark's own parts; the workloads themselves are not run."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from ome_rdf.errors import OmeRdfError
from ome_rdf.links import LinkRegistry
from perfbench import corpus, run
from perfbench.tracing import TracedLinks, Tracer

ROOT = Path(__file__).resolve().parent.parent
SMALL_EM = replace(corpus.EM_SHARED, images=100)
SMALL_MIXED = replace(corpus.MIXED_SPARSE, images=300)


@pytest.fixture(scope="module")
def lib():
    return run.Library.load()


@pytest.mark.parametrize("spec", [SMALL_EM, SMALL_MIXED])
def test_generator_bytes_depend_only_on_seed(lib, spec):
    first, again, other = (lib.generate(spec, seed) for seed in (5, 5, 6))
    assert (first.ome_xml, first.sidecar) == (again.ome_xml, again.sidecar)
    assert first.outcomes == again.outcomes and first.triples == again.triples
    assert first.ome_xml != other.ome_xml and first.sidecar != other.sidecar


@pytest.mark.parametrize("spec", [SMALL_EM, SMALL_MIXED])
def test_reference_agrees_with_the_pipeline(lib, spec):
    c = lib.generate(spec, 3)
    out = run.convert(lib, c.ome_xml, c.sidecar, run.NoTracer().call, lib.links,
                      spec.fault_rate > 0)
    assert out.nt == corpus.expected_ntriples(c)
    assert run.check_convert(out, c, run.NoTracer().call, False) == set()
    injected = {(rid, code) for rid, code in c.outcomes.items() if code is not None}
    assert {(s.image_id, s.code) for s in out.result.skipped} == injected
    if spec.fault_rate:
        assert {code for _rid, code in injected} == {corpus.ORPHAN, corpus.UNRESOLVABLE}


def test_check_blames_the_records_whose_triples_are_wrong(lib):
    c = lib.generate(SMALL_EM, 3)
    out = run.convert(lib, c.ome_xml, c.sidecar, run.NoTracer().call, lib.links, False)
    image_line = next(line for line in out.nt.splitlines(keepends=True)
                      if line.startswith("<http://ome-rdf.org/resource/image/IMG000007>"))
    broken = replace(out, nt=out.nt.replace(image_line, ""))
    failed = run.check_convert(broken, c, run.NoTracer().call, False)
    assert failed == {"IMG000007"}


def test_canonical_digests_do_not_depend_on_hash_seed():
    code = (
        "from dataclasses import replace\n"
        "from perfbench import corpus, run\n"
        "lib = run.Library.load()\n"
        "c = lib.generate(replace(corpus.MIXED_SPARSE, images=60), 2)\n"
        "out = run.convert(lib, c.ome_xml, c.sidecar, run.NoTracer().call, lib.links, True)\n"
        "print(run.sha256(out.nt), run.sha256(out.ttl))\n"
    )
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        digests.add(done.stdout)
    assert len(digests) == 1


@pytest.mark.parametrize("curie", [
    "rikenbrc_mouse:RBRC00042",
    "rikenbrc_mouse:RBRC.0-1_x",
    "mgi_mouse:MGI1234567",
    "rikenbrc_mouse:-leading-dash",
    "rikenbrc_mouse:",
    "no-separator",
])
def test_traced_links_behave_like_the_registry(curie):
    registry = LinkRegistry.default()
    tracer = Tracer("test")
    traced = TracedLinks(registry, tracer)
    try:
        expected = registry.resolve(curie)
    except OmeRdfError as e:
        with pytest.raises(type(e)) as raised:
            tracer.call("mapper.map_document", traced.resolve, curie)
        assert str(raised.value) == str(e)
        error = type(e).__name__
    else:
        assert tracer.call("mapper.map_document", traced.resolve, curie) == expected
        error = None
    child, parent = tracer.spans
    assert (child.name, child.parent, child.error) == ("links.resolve", parent.id, error)
