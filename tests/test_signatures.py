"""Each input of a run has one holder: the mesh is ``spaces.mesh``, and the
spaces and physical parameters are ``matrices.spaces`` and
``matrices.params``.  So no public function, class or method of the
package takes a holder beside what it already holds."""

import importlib
import inspect
import pkgutil

import swehdg

# a parameter beside its holder: (held, holder)
REDUNDANT = (("mesh", "spaces"), ("spaces", "matrices"), ("params", "matrices"))


def _public_callables():
    """(qualified name, callable) of every public function and class the
    package's modules define, and of every public method of those classes."""
    for info in pkgutil.iter_modules(swehdg.__path__):
        module = importlib.import_module(f"swehdg.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                yield f"{module.__name__}.{name}", obj
                for attr, member in vars(obj).items():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    if not attr.startswith("_") and inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_no_callable_takes_an_input_beside_its_holder():
    checked, found = 0, []
    for name, obj in _public_callables():
        try:
            signature = inspect.signature(obj)
        except ValueError:      # no signature to read
            continue
        checked += 1
        found += [f"{name}{signature}: {held} beside {holder}"
                  for held, holder in REDUNDANT
                  if held in signature.parameters and holder in signature.parameters]
    assert checked > 50
    assert not found
