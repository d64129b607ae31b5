"""Public-API snapshot: accidental surface breaks fail CI.

``tests/public_api_snapshot.json`` is the checked-in record of the package's
export list, the ``__all__`` of every ``repro.*`` subpackage and module, and
the signatures of the unified-API entry points.  Renaming a field, dropping an
export (at the top level or inside a subpackage), or reordering parameters
shows up here as a diff against the snapshot, so surface changes are always
deliberate.

To accept an intentional change, regenerate the snapshot::

    PYTHONPATH=src python tests/test_public_api.py --update

and commit the result (the diff *is* the review artifact).
"""

import importlib
import inspect
import json
import pkgutil
import sys
from pathlib import Path

SNAPSHOT_PATH = Path(__file__).parent / "public_api_snapshot.json"


def module_exports() -> dict:
    """``__all__`` of every ``repro.*`` subpackage and module, sorted by name."""
    import repro

    exports = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):
            continue
        module = importlib.import_module(info.name)
        exports[info.name] = sorted(module.__all__)
    return dict(sorted(exports.items()))


def current_surface() -> dict:
    import repro
    from repro import AsapSpec, Client, StreamHandle, connect

    def sig(obj) -> str:
        return str(inspect.signature(obj))

    return {
        "all": sorted(repro.__all__),
        "modules": module_exports(),
        "signatures": {
            "AsapSpec": sig(AsapSpec),
            "connect": sig(connect),
            "Client.smooth": sig(Client.smooth),
            "Client.smooth_many": sig(Client.smooth_many),
            "Client.stream": sig(Client.stream),
            "Client.ingest": sig(Client.ingest),
            "Client.tick": sig(Client.tick),
            "Client.snapshot": sig(Client.snapshot),
            "Client.close_stream": sig(Client.close_stream),
            "Client.checkpoint": sig(Client.checkpoint),
            "StreamHandle.ingest": sig(StreamHandle.ingest),
            "StreamHandle.tick": sig(StreamHandle.tick),
            "StreamHandle.snapshot": sig(StreamHandle.snapshot),
            "StreamHandle.close": sig(StreamHandle.close),
            "smooth": sig(repro.smooth),
            "find_window": sig(repro.find_window),
            "smooth_many": sig(repro.smooth_many),
        },
    }


def test_exports_match_snapshot():
    snapshot = json.loads(SNAPSHOT_PATH.read_text())
    assert current_surface()["all"] == snapshot["all"], (
        "repro.__all__ changed; if intentional, regenerate the snapshot "
        "(see this module's docstring)"
    )


def test_module_exports_match_snapshot():
    snapshot = json.loads(SNAPSHOT_PATH.read_text())["modules"]
    surface = module_exports()
    assert sorted(surface) == sorted(snapshot), (
        "the set of repro.* modules changed; if intentional, regenerate the "
        "snapshot (see this module's docstring)"
    )
    for name, expected in snapshot.items():
        assert surface[name] == expected, (
            f"{name}.__all__ changed; if intentional, regenerate the snapshot "
            f"(see this module's docstring)"
        )


def test_signatures_match_snapshot():
    snapshot = json.loads(SNAPSHOT_PATH.read_text())
    surface = current_surface()
    for name, expected in snapshot["signatures"].items():
        assert surface["signatures"][name] == expected, (
            f"signature of {name} changed; if intentional, regenerate the "
            f"snapshot (see this module's docstring)"
        )
    assert set(surface["signatures"]) == set(snapshot["signatures"])


def test_every_export_resolves():
    import repro

    snapshot = json.loads(SNAPSHOT_PATH.read_text())
    for name in snapshot["all"]:
        assert hasattr(repro, name), name
    for module_name, names in snapshot["modules"].items():
        module = importlib.import_module(module_name)
        for name in names:
            assert hasattr(module, name), f"{module_name}.{name}"


if __name__ == "__main__":
    if "--update" in sys.argv:
        SNAPSHOT_PATH.write_text(json.dumps(current_surface(), indent=2, sort_keys=True) + "\n")
        print(f"wrote {SNAPSHOT_PATH}")
    else:
        print(json.dumps(current_surface(), indent=2, sort_keys=True))
