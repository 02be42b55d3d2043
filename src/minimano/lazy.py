"""Module globals bound from the template layer on first use.

A CLI call that never touches a template should not pay to import
`hot`, `yamlite` and `plan`. `engine` and `cli` declare the names they
take with `LazyNames`, make its `attribute` their module `__getattr__`
(PEP 562), and call `bind()` before their own code uses them. Both bind
the real objects into the module's globals, so the module's own calls
and `module.name` find the same object, and a name already set there
(a wrapper that traces calls) is kept.
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
