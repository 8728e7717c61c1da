"""The benchmark harness looks liesym functions up by name; keep them there."""

import importlib
import importlib.util
from pathlib import Path

SPANS_PY = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans_module():
    # loaded from its file without calling install(), which would wrap the
    # liesym modules for the rest of the session
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_name_resolves():
    spans = _spans_module()
    missing = []
    for home, attr, _, _ in spans.SPANS:
        mod = importlib.import_module(f"liesym.{home}")
        if home not in spans.MODULES or not callable(getattr(mod, attr, None)):
            missing.append(f"liesym.{home}.{attr}")
    assert missing == []
