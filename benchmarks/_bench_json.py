"""The one writer of ``BENCH_sim.json``, the artifact CI uploads.

Each benchmark owns one section of the file and records it with
:func:`record`, which reads the current file, stamps the schema, merges
the section in, and rewrites the file with stable formatting.
"""

import json
from pathlib import Path

from repro.obs.exporters import write_bench_json

BENCH_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_sim.json"

#: Artifact schema: /3 added the ``profiler`` overhead section (see
#: docs/profiling.md); /4 added the ``predict`` section written by
#: ``bench_predict.py`` (see docs/performance_model.md); /5 added the
#: compiled-kernel dense-workload numbers (``kernels.compiled_*``,
#: including the codegen-vs-cached build-time split; see
#: docs/simulation_kernels.md); /6 added the per-scenario ``scenarios``
#: section written by ``bench_scenarios.py`` (see docs/scenarios.md).
BENCH_SCHEMA = "repro.bench.sim/6"


def read_bench_json() -> dict:
    """The current artifact, or ``{}`` if there is none yet."""
    try:
        return json.loads(BENCH_JSON_PATH.read_text())
    except (OSError, ValueError):
        return {}


def record(section, fields: dict, *, merge: bool = False) -> None:
    """Write ``fields`` as ``section`` of the artifact.

    The section is replaced, unless ``merge`` updates the existing one
    key by key.  ``section=None`` merges ``fields`` into the top level
    (the telemetry-overhead keys predate sections).
    """
    payload = read_bench_json()
    payload["schema"] = BENCH_SCHEMA
    if section is None:
        payload.update(fields)
    elif merge:
        payload.setdefault(section, {}).update(fields)
    else:
        payload[section] = fields
    write_bench_json(str(BENCH_JSON_PATH), payload)
