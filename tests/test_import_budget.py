"""Importing the pipeline's modules loads no thread pool, logging or HTTP
client: every conversion pays for its imports once per process."""

import os
import subprocess
import sys
from pathlib import Path

import ome_rdf

PIPELINE = ("ome_rdf.links", "ome_rdf.mapper", "ome_rdf.ome_xml", "ome_rdf.ontology", "ome_rdf.rdf")
UNWANTED = ("concurrent.futures", "logging", "urllib.request")


def test_pipeline_imports_stay_small():
    # a fresh interpreter, so nothing this test run imported counts
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"import {', '.join(PIPELINE)}\n"
        f"print(sorted(set({UNWANTED!r}) & (set(sys.modules) - before)))\n"
    )
    src = Path(ome_rdf.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
