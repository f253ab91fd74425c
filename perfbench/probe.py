"""Time one workload's set-up in a fresh process.

    python3 perfbench/probe.py <checkout root> <workload>

Prints ``{"setup_s": ..., "steps": [[module, seconds], ...]}``: the time
to import hitbox, load the fixture (which computes the exclusion set D)
and resolve the reference group, and, sorted by name, the self time of
each module loaded from a file during it (its execution, less that of
the modules it imports in turn).  Interpreter start-up is not included.
"""

import importlib.abc
import importlib.machinery
import json
import sys
import time
from pathlib import Path

import workloads

FILE_LOADERS = (
    importlib.machinery.SourceFileLoader,
    importlib.machinery.SourcelessFileLoader,
    importlib.machinery.ExtensionFileLoader,
)


class ImportTimer(importlib.abc.MetaPathFinder):
    """Times each module's execution, less that of its nested imports.

    Put first on ``sys.meta_path``, it lets the other finders find each
    module and wraps the ``exec_module`` of file loaders, which are made
    per module; built-in and frozen modules count in their importer's time.
    """

    def __init__(self):
        self.steps: dict[str, float] = {}
        self.nested: list[float] = []

    def find_spec(self, name, path, target=None):
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                break
        else:
            return None
        if isinstance(spec.loader, FILE_LOADERS):
            spec.loader.exec_module = self.timed(name, spec.loader.exec_module)
        return spec

    def timed(self, name, exec_module):
        def run(module):
            self.nested.append(0.0)
            t0 = time.perf_counter()
            try:
                exec_module(module)
            finally:
                total = time.perf_counter() - t0
                self.steps[name] = total - self.nested.pop()
                if self.nested:
                    self.nested[-1] += total

        return run


if __name__ == "__main__":
    root, name = Path(sys.argv[1]), sys.argv[2]
    sys.path.insert(0, str(root / "src"))
    timer = ImportTimer()
    sys.meta_path.insert(0, timer)
    t0 = time.perf_counter()
    workloads.setup(workloads.WORKLOADS[name])
    setup_s = time.perf_counter() - t0
    sys.meta_path.remove(timer)
    print(json.dumps({"setup_s": setup_s, "steps": sorted(timer.steps.items())}))
