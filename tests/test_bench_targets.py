"""The traced benchmark run binds its span targets by name; each one must exist.

``bench/spans.py`` looks every ``TARGETS`` entry up with ``getattr`` when it
installs its wrappers, so a function removed or renamed in the package
crashes the traced run.  The module is loaded from its path, unchanged.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_span_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{short}.{attr}" for short, names in spans.TARGETS.items()
               for attr in names if not callable(getattr(importlib.import_module(f"compassdiff.{short}"), attr, None))]
    assert spans.TARGETS
    assert missing == []
