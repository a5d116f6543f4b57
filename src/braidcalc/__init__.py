"""Exact-arithmetic workbench for finite-dimensional braided vector spaces.

Computes, over a cyclotomic coefficient field and without any floating
point: primitive spaces of the braided tensor bialgebra, Nichols-algebra
dimensions and quadraticity by normal words, symmetric-algebra towers and
the strongness degree (combinatorial rank), universal enveloping algebras of
braided Lie algebras with PBW verification, Hecke-type specializations, and
the root-of-unity symmetrization operators with their partial-bracket
identities.
"""

__version__ = "0.1.0"

from .errors import WorkbenchError
from .scalars import CycloField, CycloScalar, Q, field_make, is_regular_exact, root_order
from .linalg import Echelon, Subspace
from .spaces import (BraidedSpace, BraidWord, make_braiding, make_preset, matsumoto_lift,
                     word_index, word_letters)
from .tensorbialg import nichols_dims, primitive_space
from .tower import (IdealTower, SdegVerdict, ideal_closure, is_quadratic, nichols_via_tower, sdeg,
                    symmetric_step, tower_iterates)
from .enveloping import (BracketTable, FilteredQuotient, LieVerdict, PbwVerdict,
                         enveloping_filtration, hecke_presentation, lie_check, pbw_check,
                         primitive_check, validate_bracket)
from .pareigis import (check_pi_in_E, check_pi_su, induced_bracket, mixed_zeta_space, verify_PL,
                       zeta_space)
from .fixtures import CATALOG, preset_bracket
