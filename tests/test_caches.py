import importlib
import pkgutil

import bruhatkit


def _cached_functions():
    out = {}
    for info in pkgutil.iter_modules(bruhatkit.__path__, "bruhatkit."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if (hasattr(value, "cache_info")
                    and getattr(value, "__module__", None) == module.__name__):
                out[name] = value
    return out


def test_cache_inventory():
    # Every module-level memo table, so that adding one is a visible change.
    cached = _cached_functions()
    assert set(cached) == {"reduced_word", "bruhat_le", "interval", "ad",
                           "_shared_system", "_parser"}
    assert cached["interval"].cache_parameters()["maxsize"] is not None
    # The registry behind root_system and the CLI parser are bounded.
    assert cached["_shared_system"].cache_parameters()["maxsize"] == 32
    assert cached["_parser"].cache_parameters()["maxsize"] == 1
