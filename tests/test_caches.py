import importlib
import pkgutil
import types

import bruhatkit
from bruhatkit.weyl import WeylElement


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


def test_element_slots():
    # Every per-element memo, so that adding one is a visible change.
    assert WeylElement.__slots__ == ("system", "perm", "_length", "_inverse",
                                     "_word", "_hash")


def test_public_surface():
    # Every public name the package exports, so that exporting or dropping
    # one is a visible change.
    names = {name for name, value in vars(bruhatkit).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert names == {
        "BruhatkitError", "ComplexityReport", "DEFAULT_GROUP_CAP",
        "DeodharComponentShape", "FormulaUnavailableError",
        "GroupTooLargeError", "InvalidInputError", "LabeledInterval",
        "LeviAction", "NotComparableError", "PreconditionError", "Root",
        "RootSystem", "SKIP", "Subexpression", "TAKE", "WeylElement", "ad",
        "apply_to_root", "bruhat_le", "build_root_system", "canonical_order",
        "component_shape", "deodhar_polynomial", "enumerate_distinguished",
        "enumerate_group", "from_word", "identity", "interval", "inverse",
        "is_toric", "is_toric_partial", "left_descents", "left_inversions",
        "left_parabolic_decomposition", "levi_acts", "levi_borel_complexity",
        "longest_element", "max_toric_above_bottom", "max_toric_below_top",
        "multiply", "partial_flag_levi_complexity",
        "partial_flag_torus_complexity", "partial_stabilizer_descents",
        "positive_distinguished", "positive_root_count", "reduced_word",
        "right_descents", "right_inversions", "right_parabolic_decomposition",
        "root_system", "scan", "simple_reflect", "span_rank", "support",
        "torus_complexity_richardson", "torus_complexity_schubert",
        "weyl_group_order", "word_string"}
