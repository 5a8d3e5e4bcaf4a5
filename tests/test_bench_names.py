"""The benchmark's span recorder wraps rootdist functions by name; a rename
or deletion in src/ must fail here, not only in the traced benchmark run."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import rootdist

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_wrapped_name_resolves():
    spans = _load_spans()
    present = {f"rootdist.{m.name}" for m in pkgutil.iter_modules(rootdist.__path__)}
    for mod_name, attr, _, _ in spans.LAYER_MAP:
        if mod_name not in present:
            continue  # a module rootdist no longer has: install skips it
        assert callable(getattr(importlib.import_module(mod_name), attr)), (mod_name, attr)
    for mod_name, cls_name, attr in spans.CSV_METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        assert callable(getattr(cls, attr)), (mod_name, cls_name, attr)


def test_root_caches_report_their_counts():
    spans = _load_spans()
    from rootdist import roots

    assert hasattr(roots._prime_roots_cached, "cache_info")
    assert hasattr(roots._prime_power_roots_cached, "cache_info")
    assert set(spans.roots_cache_counts()) == {"roots.cache_hits", "roots.cache_misses"}
