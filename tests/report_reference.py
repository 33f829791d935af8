"""The report encoder that ``distlab.cli`` replaced, kept as the oracle for its output.

It always copies the payload first, one value at a time, writing every
non-finite float as null and every numpy matrix as its wire-format object,
and then encodes the copy as strict JSON.  The CLI makes no copy: it encodes
a report in one walk, writes a matrix's text straight from the array, and
walks into a value only where the strict encoder refuses a non-finite float
in it; ``tests/test_cli.py`` asserts that both print the same bytes and that
``summarize`` prints the same line for the report and for its copy here.
"""

import json

import numpy as np


def reference_jsonable(obj):
    """Strict-JSON copy: non-finite floats become null, and a numpy matrix ``{rows, cols, re, im}``."""
    if isinstance(obj, np.ndarray):
        rows, cols = obj.shape
        return {
            "rows": rows,
            "cols": cols,
            "re": reference_jsonable([float(x) for x in obj.real.ravel()]),
            "im": reference_jsonable([float(x) for x in obj.imag.ravel()]),
        }
    if isinstance(obj, dict):
        return {k: reference_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_jsonable(v) for v in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj


def reference_report(report: dict) -> dict:
    """The report as the original encoder printed it: the payload walked, the manifest as given."""
    return {**report, "payload": reference_jsonable(report["payload"])}


def reference_encode(report: dict) -> str:
    """The stdout line the original encoder wrote for ``report``."""
    return json.dumps(reference_report(report), separators=(",", ":"), allow_nan=False) + "\n"
