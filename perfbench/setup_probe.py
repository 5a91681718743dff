"""Time the library's set-up in a fresh interpreter and print it as JSON.

Measures from before the first ``ome_rdf`` import to a ready core
ontology, default link registry and minting policy, which is what every
conversion pays once per process.  ``run.py`` starts this script several
times per run and reports the median of ``reference_s``, the total at
reference host speed (see :mod:`perfbench.hostspeed`).
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.hostspeed import SpeedProbe  # noqa: E402

with SpeedProbe() as probe:
    t0 = time.perf_counter()
    from ome_rdf.links import LinkRegistry
    from ome_rdf.mapper import MintingPolicy
    from ome_rdf.ontology import build_core_ontology

    t1 = time.perf_counter()
    build_core_ontology()
    t2 = time.perf_counter()
    LinkRegistry.default()
    t3 = time.perf_counter()
    MintingPolicy()
    t4 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "ontology_s": t2 - t1, "links_s": t3 - t2,
                  "total_s": t4 - t0, "reference_s": probe.reference_seconds(t4 - t0)}))
