"""Module globals bound from another module on first use.

A CLI call that never touches a template should not pay to import the
template layer (`hot`, `yamlite`, `plan`), nor one that hashes nothing
for `hashlib`. A module that calls into such a module declares the names
it takes with `LazyNames`, makes the object's `attribute` its module
`__getattr__` (PEP 562), and calls `bind()` before its own code uses
them. Both bind the real objects into the module's
globals, so the module's own calls and `module.name` find the same
object. A name already set there, for example by a wrapper that traces
calls, is kept.
"""

import importlib


class LazyNames:
    def __init__(self, module_globals: dict, sources: dict):
        """`sources` maps a module name, relative to the package of
        `module_globals`, to the names taken from it."""
        self.globals = module_globals
        self.sources = sources
        self.names = {name for names in sources.values() for name in names}

    def bind(self):
        for module, names in self.sources.items():
            owner = importlib.import_module(module, self.globals["__package__"])
            for name in names:
                self.globals.setdefault(name, getattr(owner, name))

    def attribute(self, name):
        if name not in self.names:
            raise AttributeError(f"module {self.globals['__name__']!r} has no attribute {name!r}")
        self.bind()
        return self.globals[name]
