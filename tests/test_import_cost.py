import dataclasses
import importlib
import pkgutil

import xorsim

# each needs what only a dataclass gives: dataclasses.replace (FlowSpec,
# Scenario), frozen fields that guard the routes built from them (Topology)
# or per-field metadata (ExperimentPlan's config keys)
DATACLASSES = {"FlowSpec", "Scenario", "Topology", "ExperimentPlan"}


def test_only_the_needed_types_are_dataclasses():
    names = [info.name for info in pkgutil.iter_modules(xorsim.__path__, "xorsim.")]
    assert "xorsim.cli" in names
    found = set()
    for module in map(importlib.import_module, names):
        found |= {name for name, obj in vars(module).items()
                  if isinstance(obj, type) and obj.__module__ == module.__name__ and dataclasses.is_dataclass(obj)}
    assert found == DATACLASSES, (
        "each @dataclass generates and compiles its methods at every `import xorsim` (about 1 ms each); "
        f"only {sorted(DATACLASSES)} need replace, frozen semantics or field metadata, found {sorted(found)}")
