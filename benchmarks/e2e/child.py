"""Run one experiment in this (fresh) process.

Usage: ``python child.py MODULE KWARGS_JSON OUT_JSON``

Imports ``repro.experiments.MODULE``, calls its ``run(**KWARGS)`` with
no campaign engine, run directory or telemetry, and writes
``{"result": ..., "seed": ...}`` to ``OUT_JSON``.  ``seed`` is the seed
the experiment actually used (its default when KWARGS gives none), or None.
"""

import importlib
import inspect
import json
import sys


def main(argv):
    module_name, kwargs_json, out_path = argv
    module = importlib.import_module(f"repro.experiments.{module_name}")
    kwargs = json.loads(kwargs_json)
    result = module.run(**kwargs)
    bound = inspect.signature(module.run).bind(**kwargs)
    bound.apply_defaults()
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"result": result.to_dict(), "seed": bound.arguments.get("seed")}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
