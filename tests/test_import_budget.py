"""Importing the pipeline's modules loads no thread pool, logging or HTTP
client, and no graph comparison: every conversion pays for its imports once
per process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ome_rdf

PIPELINE = ("ome_rdf.links", "ome_rdf.mapper", "ome_rdf.ome_xml", "ome_rdf.ontology", "ome_rdf.rdf")
UNWANTED = ("concurrent.futures", "logging", "urllib.request", "ome_rdf.rdf.isomorphism",
            "ome_rdf.xsd_translator")


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


def test_graph_isomorphic_loads_on_first_use():
    from ome_rdf import rdf
    from ome_rdf.rdf import graph_isomorphic
    from ome_rdf.rdf.isomorphism import graph_isomorphic as defined

    assert graph_isomorphic is defined and rdf.graph_isomorphic is defined
    with pytest.raises(AttributeError, match="no_such_name"):
        rdf.no_such_name
