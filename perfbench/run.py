"""Seeded convert/reload benchmark for the OME-XML -> RDF pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the library is imported from
``src/``, never from an installed copy.  One run generates its inputs from
the seed, runs passes back to back (a closed loop in one thread) until
``--seconds`` of pass time are measured, checks every output against the
generator's reference, and prints one JSON object as its last line.  There
is no warm-up pass: a conversion runs once per process, so its users pay
the first pass's cost too.  The run exits 1 after its result line when an
output is wrong, and fails before printing one when the library under
``src/`` cannot be imported.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics from spans the
benchmark records around each call into a layer; the spans are written to
``.perfbench-traces/`` when the run ends.  ``record.json`` beside this file
says what each workload and metric means, and holds the default seed, the
output digests and the baseline.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional
from urllib.parse import unquote

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
if __package__ in (None, ""):  # started as a script
    sys.path[:0] = [str(SRC), str(ROOT)]

import ome_rdf  # noqa: E402
from ome_rdf.errors import OmeRdfError  # noqa: E402
from ome_rdf.links import LinkRegistry  # noqa: E402
from ome_rdf.mapper import MintingPolicy, map_document  # noqa: E402
from ome_rdf.ome_xml import parse_ome_document, parse_sidecar  # noqa: E402
from ome_rdf.ontology import OntologyRegistry, build_core_ontology  # noqa: E402
from ome_rdf.rdf import (  # noqa: E402
    Graph,
    Iri,
    Literal,
    Triple,
    graph_isomorphic,
    parse_ntriples,
    parse_turtle,
    serialize_ntriples,
    serialize_turtle,
)

from perfbench import corpus  # noqa: E402
from perfbench.hostspeed import SpeedProbe  # noqa: E402
from perfbench.tracing import NoTracer, TracedLinks, Tracer, self_time  # noqa: E402

RECORD = HERE / "record.json"
TRACE_DIR = ROOT / ".perfbench-traces"
SETUP_PROBES = 7


@dataclass(frozen=True)
class Workload:
    kind: str  # "convert" or "reload"
    spec: corpus.Spec
    skip_errors: bool


WORKLOADS = {
    "convert_em_shared": Workload("convert", corpus.EM_SHARED, False),
    "convert_mixed_sparse": Workload("convert", corpus.MIXED_SPARSE, True),
    "reload_em": Workload("reload", replace(corpus.EM_SHARED, images=2000), False),
}

# layers a pass calls, and whether the layer's throughput in MB/s is reported
PASS_LAYERS = (
    ("ome_xml.parse_ome_document", True),
    ("ome_xml.parse_sidecar", False),
    ("mapper.map_document", False),
    ("links.resolve", False),
    ("rdf.serialize.ntriples", True),
    ("rdf.serialize.turtle", True),
    ("rdf.parse.ntriples", True),
    ("rdf.parse.turtle", True),
    ("rdf.isomorphism.graph_isomorphic", False),
)


@dataclass(frozen=True)
class Library:
    registry: OntologyRegistry
    links: LinkRegistry
    policy: MintingPolicy

    @classmethod
    def load(cls) -> "Library":
        return cls(build_core_ontology(), LinkRegistry.default(), MintingPolicy())

    def generate(self, spec, seed) -> corpus.Corpus:
        return corpus.generate(spec, seed, self.registry.namespace.value,
                               self.policy.instance_base.value)


@dataclass(frozen=True)
class Converted:
    result: object
    rows: int
    nt: str
    ttl: str


def convert(lib: Library, ome_xml: str, sidecar: str, call, links, skip_errors) -> Converted:
    """One convert pass: OME-XML and sidecar text to canonical N-Triples and Turtle."""
    doc = call("ome_xml.parse_ome_document", parse_ome_document, ome_xml)
    annotations = call("ome_xml.parse_sidecar", parse_sidecar, sidecar)
    result = call("mapper.map_document", map_document, doc, annotations, lib.registry,
                  lib.policy, links, skip_errors=skip_errors)
    nt = call("rdf.serialize.ntriples", serialize_ntriples, result.graph)
    ttl = call("rdf.serialize.turtle", serialize_turtle, result.graph)
    return Converted(result, len(annotations), nt, ttl)


def reload(nt: str, ttl: str, expected: Graph, call):
    """One reload pass: parse both formats and compare each with ``expected``."""
    g_nt = call("rdf.parse.ntriples", parse_ntriples, nt)
    g_ttl = call("rdf.parse.turtle", parse_turtle, ttl)
    iso_nt = call("rdf.isomorphism.graph_isomorphic", graph_isomorphic, g_nt, expected)
    iso_ttl = call("rdf.isomorphism.graph_isomorphic", graph_isomorphic, g_ttl, expected)
    return g_nt, g_ttl, iso_nt and iso_ttl and g_nt == expected and g_ttl == expected


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_pair(nt: str, ttl: str) -> dict:
    return {"ntriples": sha256(nt), "turtle": sha256(ttl)}


def reference_graph(c: corpus.Corpus) -> Graph:
    """The generator's expected triples as a graph, built without the mapper."""

    def term(value):
        if isinstance(value, str):
            return Iri(value)
        lexical, datatype = value
        return Literal(lexical) if datatype is None else Literal(lexical, Iri(datatype))

    return Graph(Triple(Iri(s), Iri(p), term(o))
                 for triples in c.triples.values() for s, p, o in triples)


class Blame:
    """Maps wrong or missing triples back to the records that own them."""

    def __init__(self, c: corpus.Corpus):
        self.records = set(c.outcomes)
        self.owners: dict = {}
        for image_id, triples in c.triples.items():
            for s, _p, _o in triples:
                self.owners.setdefault(s, set()).add(image_id)

    def subjects(self, subjects) -> set:
        failed = set()
        for s in subjects:
            failed |= self.owners.get(s, {f"unexpected subject {s}"})
        return failed

    def triples(self, got, expected) -> set:
        return self.subjects({str(t.subject) for t in got ^ expected})

    def ntriples(self, got: str, expected: str) -> set:
        if got == expected:
            return set()
        diff = set(got.splitlines()) ^ set(expected.splitlines())
        if not diff:  # same lines, not in canonical order
            return set(self.records)
        return self.subjects({line.split(" ", 1)[0][1:-1] for line in diff})


def check_convert(out: Converted, c: corpus.Corpus, call, thorough) -> set:
    """Record ids whose outcome or triples are wrong in one convert pass's outputs.

    ``thorough`` also parses the N-Triples back, which the byte comparison
    with the reference makes redundant but a traced run needs to measure
    the N-Triples parser on this workload.
    """
    blame = Blame(c)
    ref = reference_graph(c)
    got = {unquote(r.image_iri.value.rsplit("/", 1)[1]): None for r in out.result.records}
    got.update((s.image_id, s.code) for s in out.result.skipped)
    failed = {rid for rid, code in c.outcomes.items() if got.get(rid, "missing") != code}
    failed |= set(got) - blame.records
    failed |= blame.triples(out.result.graph.triples, ref.triples)
    failed |= blame.ntriples(out.nt, corpus.expected_ntriples(c))
    parsers = [("rdf.parse.turtle", parse_turtle, out.ttl)]
    if thorough:
        parsers.append(("rdf.parse.ntriples", parse_ntriples, out.nt))
    for name, parser, text in parsers:
        try:
            g = call(name, parser, text)
        except OmeRdfError:
            return set(blame.records)
        failed |= blame.triples(g.triples, out.result.graph.triples)
        if thorough and not call("rdf.isomorphism.graph_isomorphic", graph_isomorphic,
                                 g, out.result.graph):
            return set(blame.records)
    return failed


@dataclass
class Pass:
    index: int
    traced: bool
    seconds: float
    #: ``seconds`` at reference host speed (see :mod:`perfbench.hostspeed`);
    #: None in a traced run, whose passes are not sampled so that the
    #: sampling does not add to the spans it interrupts
    reference_seconds: Optional[float]
    fingerprint: str


def fingerprint(out) -> str:
    if isinstance(out, Converted):
        skipped = sorted((s.image_id, s.code) for s in out.result.skipped)
        return sha256(f"{sha256(out.nt)} {sha256(out.ttl)} {skipped}")
    g_nt, g_ttl, same = out
    return f"{len(g_nt)} {len(g_ttl)} {same}"


def run_passes(seconds, one_pass, tracer):
    """Closed loop: passes back to back until ``seconds`` of pass time are measured.

    With a :class:`Tracer`, odd passes are traced and even ones are not, and
    the loop runs until both kinds have at least one pass; otherwise every
    pass runs under a :class:`SpeedProbe`.  Returns the
    passes and the output of the last one; earlier outputs are dropped
    before the next pass so they do not add to peak memory.
    """
    tracing = isinstance(tracer, Tracer)
    passes = []
    total = 0.0
    while True:
        index = len(passes)
        traced = tracing and index % 2 == 1
        if tracing:
            tracer.phase = f"pass{index}" if traced else "untraced"
        gc.collect()
        with nullcontext() if tracing else SpeedProbe() as probe:
            start = time.perf_counter()
            out = one_pass(traced)
            elapsed = time.perf_counter() - start
        total += elapsed
        reference = None if tracing else probe.reference_seconds(elapsed)
        passes.append(Pass(index, traced, elapsed, reference, fingerprint(out)))
        if total >= seconds and (not tracing or len(passes) >= 2):
            return passes, out
        out = None


def probe_setup() -> dict:
    done = subprocess.run([sys.executable, str(HERE / "setup_probe.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def layer_metrics(tracer: Tracer, passes, counts: dict, probes) -> dict:
    traced = [p for p in passes if p.traced]
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def median_of(groups, value):
        return statistics.median(value(spans) for spans in groups)

    for name, rate in PASS_LAYERS:
        spans = [s for s in tracer.spans if s.name == name]
        groups = [[s for s in spans if s.phase == f"pass{p.index}"] for p in traced]
        in_pass = any(groups)
        if not in_pass:
            # not part of this workload's pass: measured where the run calls
            # it while preparing inputs or checking outputs
            groups = [spans]
        busy = median_of(groups, lambda g: sum(s.duration for s in g))
        put(f"{name}.busy_s", busy, "s")
        if rate:
            put(f"{name}.mb_per_s",
                median_of(groups, lambda g: sum(s.nbytes for s in g)) / 1e6 / busy, "MB/s")
        share = (sum(s.duration for g in groups for s in g) / sum(p.seconds for p in traced)
                 if in_pass else 0.0)
        put(f"{name}.share", share, "ratio")
        if name == "mapper.map_document":
            put(f"{name}.self_s",
                median_of(groups, lambda g: self_time(tracer.spans, {s.id for s in g})), "s")
        if name == "links.resolve":
            put(f"{name}.calls", median_of(groups, len), "count")
            put(f"{name}.failed",
                median_of(groups, lambda g: sum(s.error is not None for s in g)), "count")

    put("ome_xml.parse_sidecar.rows", counts["rows"], "count")
    for key in ("triples_emitted", "triples_unique", "unique_ratio",
                "skipped.OrphanAnnotation", "skipped.UnresolvableStrain"):
        put(f"mapper.map_document.{key}", counts[key],
            "ratio" if key == "unique_ratio" else "count")
    put("setup.import_s", statistics.median(p["import_s"] for p in probes), "s")
    put("ontology.build_core_ontology.busy_s",
        statistics.median(p["ontology_s"] for p in probes), "s")
    put("links.LinkRegistry.default.busy_s",
        statistics.median(p["links_s"] for p in probes), "s")
    put("trace.overhead_ratio",
        statistics.median(counts["images"] / p.seconds for p in traced)
        / statistics.median(counts["images"] / p.seconds for p in passes if not p.traced),
        "ratio")
    return metrics


def mapper_counts(conv: Converted) -> dict:
    emitted = sum(len(r.graph) for r in conv.result.records)
    unique = len(conv.result.graph)
    codes = [s.code for s in conv.result.skipped]
    return {
        "rows": conv.rows,
        "triples_emitted": emitted,
        "triples_unique": unique,
        "unique_ratio": unique / emitted,
        "skipped.OrphanAnnotation": codes.count(corpus.ORPHAN),
        "skipped.UnresolvableStrain": codes.count(corpus.UNRESOLVABLE),
    }


def reload_input(lib: Library, workload: Workload, c: corpus.Corpus, call, links):
    """Canonical N-Triples and Turtle of ``c``, its mapper counts, and any problems.

    The library's own writers make the reload input, so the N-Triples are
    checked against the generator's reference here; ``main`` checks the
    writers' output for the default seed against ``record.json`` after the
    passes, so that a change to a writer cannot change the workload
    unnoticed.
    """
    prepared = convert(lib, c.ome_xml, c.sidecar, call, links, workload.skip_errors)
    problems = []
    if prepared.nt != corpus.expected_ntriples(c):
        problems.append("reload input N-Triples differ from the reference")
    return prepared.nt, prepared.ttl, mapper_counts(prepared), problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not Path(ome_rdf.__file__).resolve().is_relative_to(SRC):
        print(f"ome_rdf imported from {ome_rdf.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    record = json.loads(RECORD.read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    digests = record["digests"][args.workload]

    probes = [probe_setup() for _ in range(SETUP_PROBES)]
    lib = Library.load()
    run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}-{time.time_ns()}"
    tracer = Tracer(run_id) if args.trace else NoTracer()
    direct = NoTracer().call
    traced_links = TracedLinks(lib.links, tracer)

    c = lib.generate(workload.spec, args.seed)
    images, records = c.images, len(c.outcomes)
    if workload.kind == "convert":
        ome_xml, sidecar = c.ome_xml, c.sidecar

        def one_pass(traced):
            return convert(lib, ome_xml, sidecar, tracer.call if traced else direct,
                           traced_links if traced else lib.links, workload.skip_errors)
        problems = []
    else:
        nt, ttl, counts, problems = reload_input(lib, workload, c, tracer.call, traced_links)
        expected = reference_graph(c)

        def one_pass(traced):
            return reload(nt, ttl, expected, tracer.call if traced else direct)
    # the reference triples are generated again for the checks, so that
    # holding them does not count toward the workload's peak memory
    c = None

    passes, out = run_passes(args.seconds, one_pass, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    tracer.phase = "check"
    c = lib.generate(workload.spec, args.seed)
    if workload.kind == "convert":
        failed = check_convert(out, c, tracer.call, args.trace == 1)
        counts = mapper_counts(out)
        if args.seed == record["default_seed"] and digest_pair(out.nt, out.ttl) != digests:
            problems.append("output digests differ from record.json")
    else:
        blame = Blame(c)
        g_nt, g_ttl, _same = out
        failed = blame.triples(g_nt.triples, expected.triples) | blame.triples(
            g_ttl.triples, expected.triples)
        if args.seed != record["default_seed"]:
            default = lib.generate(workload.spec, record["default_seed"])
            baseline = convert(lib, default.ome_xml, default.sidecar, direct, lib.links,
                               workload.skip_errors)
            nt, ttl = baseline.nt, baseline.ttl
        if digest_pair(nt, ttl) != digests:
            problems.append("reload input digests differ from record.json")
    # every pass must produce what the checked (last) pass produced
    failed_total = sum(records if p.fingerprint != passes[-1].fingerprint
                       else min(len(failed), records) for p in passes)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
        failed_total = records * len(passes)
    attempted = records * len(passes)

    if args.trace:
        metrics = layer_metrics(tracer, passes, dict(counts, images=images), probes)
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(TRACE_DIR / f"{run_id}.jsonl")
    else:
        metrics = {
            "images_per_s": {"value": statistics.median(images / p.reference_seconds
                                                        for p in passes),
                             "unit": "1/s"},
            "setup_s": {"value": statistics.median(p["reference_s"] for p in probes),
                        "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    speed = ("" if args.trace else ", at reference host speed "
             f"{[round(p.reference_seconds, 3) for p in passes]}")
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes of {images} images; "
          f"pass seconds {[round(p.seconds, 3) for p in passes]}{speed}; "
          f"records_failed_ratio {failed_total / attempted:.6f} "
          f"({failed_total} of {attempted} records)")
    print(json.dumps({"correct": failed_total == 0, "attempted": attempted,
                      "failed": failed_total, "metrics": metrics}))
    return 0 if failed_total == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
