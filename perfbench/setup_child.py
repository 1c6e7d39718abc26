"""Set-up work a pipeline run does before its first stage.

Usage: python3 setup_child.py [FLEET.json]

Imports the package, loads the fleet config (when given) and the bundled
airport and continent tables, then prints the time of each step as one
JSON object. The benchmark times the whole process from the outside, so
interpreter start and exit count towards ``setup_s`` too. A loader that
no longer exists under its name is skipped and listed as absent.
"""

from __future__ import annotations

import json
import sys
import time


def _call(module, qualname: str, *args) -> bool:
    target = module
    for part in qualname.split("."):
        target = getattr(target, part, None)
        if target is None:
            return False
    target(*args)
    return True


def main(argv: list[str]) -> int:
    started = time.perf_counter()
    import fleetscope.cli  # noqa: F401  (imports every stage module)
    from fleetscope import simulation, validation

    imported = time.perf_counter()
    absent = []
    if argv and not _call(simulation, "SimulatedFleet.from_file", argv[0]):
        absent.append("simulation:SimulatedFleet.from_file")
    loaded = time.perf_counter()
    if not _call(validation, "AirportDatabase.bundled", True):
        absent.append("validation:AirportDatabase.bundled")
    if not _call(validation, "load_continent_table"):
        absent.append("validation:load_continent_table")
    done = time.perf_counter()
    print(json.dumps({"setup.import_s": imported - started,
                      "setup.fleet_load_s": loaded - imported,
                      "setup.airports_s": done - loaded,
                      "absent": absent}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
