"""Exact computation in the Burau image: evaluation, depth, graded
coefficients, and constructive approximation by braid words."""

from .laurent import ONE, S, T, T_INV, ZERO, LaurentPoly, TruncSeries
from .linalg import (IntLattice, IntMatrix, LaurentMatrix, NonUnitDeterminant,
                     TruncMatrix, matrix_lattice, perm_matrix, row_hnf)
from .words import (BraidWord, Commutator, Concat, IndexOutOfRange, Inverse,
                    Literal, ParseError, Perm, Power, all_perms, alpha_word,
                    commutator, concat, delta_word, empty_word, flatten, gen,
                    letter_bound, node_count, parse_word, perm_lift, pure_gen,
                    word_format, word_permutation)
from .liealg import (GradedElement, bracket_lattice, g_basis, g_bracket,
                     g_lattice, g_rank, gen_x, gen_y, membership_violations,
                     orbit, orbit_key, sn_act)
from .rep import (GAMMA_CONDITIONS, DepthTooSmall, GammaElement, GammaReport,
                  burau_eval, burau_eval_trunc, burau_gamma, burau_gen,
                  form_j, gamma_check, gamma_coeff, ones_row, vector_v)
from .phi import (CosetElement, DepthViolation, HalfIntegralityViolation,
                  KernelElement, KernelTerm, KernelViolation, coset_modulus,
                  phi_eval, phi_from_w, reconstruct_plus, w_prime)
from .density import (ApproximationResult, DepthRegression,
                      LibraryIntegrityError, NoSolution, NotInGamma,
                      SpanFailure, StepRecord, Witness, WitnessLibrary,
                      approximate, build_witness_library, default_library,
                      solve_in_degree)
from .search import (SearchConfig, SearchHit, SearchOutcome,
                     alpha_search_config, delta_search_config, search_deep)

__version__ = "0.1.0"
