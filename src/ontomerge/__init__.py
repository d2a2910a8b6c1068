"""Merging of conflicting terminological knowledge bases via RCC-5 networks.

Pipeline: parse strict-normal-form ontologies, translate their asserted
subsumption/disjointness axioms into RCC-5 constraint networks, merge the
networks by distance-guided relaxation until consistent, pick the
scenario that raises the fewest conflicts with the sources' closed
ABoxes, and translate it back into an ontology.  ``ontomerge.X`` is
``ontomerge.<module>.X`` for the first module of `_LIBRARY` whose
``__all__`` holds X, imported on first use (PEP 562), so a command loads
only the layers it runs.  The CLI is `ontomerge.cli`.
"""

from importlib import import_module

__version__ = "0.1.0"

_LIBRARY = ("distance", "merging", "ontology", "rcc5", "selection", "translate")


def __getattr__(name: str):
    if name in _LIBRARY or name == "cli":
        return import_module(f"{__name__}.{name}")
    if name == "__all__":
        return [export for module in _LIBRARY for export in __getattr__(module).__all__]
    for module_name in _LIBRARY:
        module = __getattr__(module_name)
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LIBRARY, "cli", *__getattr__("__all__")})
