"""bruhatkit: exact combinatorics of Weyl groups and Bruhat intervals,
with torus and Levi-Borel complexity of Schubert and Richardson varieties.
"""

__version__ = "0.1.0"

from .algdim import (ad, is_toric, max_toric_above_bottom,
                     max_toric_below_top, span_rank)
from .bruhat import LabeledInterval, bruhat_le, interval
from .complexity import (ComplexityReport, LeviAction, levi_acts,
                         levi_borel_complexity, is_toric_partial,
                         partial_flag_levi_complexity,
                         partial_flag_torus_complexity,
                         partial_stabilizer_descents, scan,
                         torus_complexity_richardson,
                         torus_complexity_schubert)
from .deodhar import (SKIP, TAKE, DeodharComponentShape, Subexpression,
                      component_shape, deodhar_polynomial,
                      enumerate_distinguished, positive_distinguished)
from .errors import (BruhatkitError, FormulaUnavailableError,
                     GroupTooLargeError, InvalidInputError,
                     NotComparableError, PreconditionError)
from .rootsys import (Root, RootSystem, build_root_system,
                      positive_root_count, root_system, simple_reflect,
                      weyl_group_order)
from .weyl import (DEFAULT_GROUP_CAP, WeylElement, apply_to_root,
                   canonical_order, enumerate_group, from_word, identity,
                   inverse, left_descents, left_inversions,
                   left_parabolic_decomposition, longest_element, multiply,
                   reduced_word, right_descents, right_inversions,
                   right_parabolic_decomposition, support, word_string)
