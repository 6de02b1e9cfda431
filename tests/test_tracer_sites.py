"""The benchmark tracer's sites: every one it lists resolves, except the known stale ones.

A site that no longer resolves leaves its layer's metric blind without
failing a run, so a refactor that moves a traced function must show here.
"""

import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# sites that name functions since moved or removed; dropping them from the
# tracer changes the benchmark, so they wait for a change to it
STALE = {
    "shiftrank.substitution:letter_images",
    "shiftrank.odometer:letter_images",
    "shiftrank.ranks:aperiodicity_check",
    "shiftrank.catalog:aperiodicity_check",
    "shiftrank.ranks:lift_state",
    "shiftrank.ranks:base_windows",
}


def _layers() -> dict[str, tuple[str, ...]]:
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


def _resolves(site: str) -> bool:
    """Whether ``module:path`` names a callable, looked up as the tracer looks it up."""
    module_name, _, path = site.partition(":")
    owner = importlib.import_module(module_name)
    for name in path.split("."):
        owner = getattr(owner, name, None)
    return callable(owner)


def test_every_traced_site_resolves_but_the_stale_ones():
    sites = [site for sites in _layers().values() for site in sites]
    assert all(site.startswith("shiftrank.") for site in sites)
    assert {site for site in sites if not _resolves(site)} == STALE
