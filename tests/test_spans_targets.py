"""The benchmark's traced targets still name attributes of the package."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


def test_every_traced_target_resolves():
    targets = _targets()
    assert targets
    missing = []
    for module, path in targets:
        obj = importlib.import_module(f"nervecheck.{module}")
        for part in path.split("."):
            if not hasattr(obj, part):
                missing.append(f"{module}.{path}")
                break
            obj = getattr(obj, part)
    assert missing == []
