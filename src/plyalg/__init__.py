"""Exact symbolic engine for the free post-Lie-Yamaguti algebra.

Exposes the term model, the tensor/D-algebra operations, basis enumeration
and conversion, Hall machinery, normalization with replayable traces, the
derived Lie-Yamaguti structure, and an expression parser/printer.
"""
from .terms import (Alphabet, LinComb, bracket_count, brk, gen, graft,
                    vertex_count)
from .tensor import (lie_word, symmetrize, tensor_mul, tree_brk, tree_mul,
                     triangle, triple_bracket)
from .orders import cmp_delta, cmp_shat
from .osbb import decompose as osbb_decompose, expand as osbb_expand
from .bases import (alpha_count, any_to_bhat, any_to_t, beta_count, cmp_t,
                    cmp_hall_t, enumerate_Bhat, enumerate_S, enumerate_Shat,
                    enumerate_T, from_shat, phi, phi_inv, to_shat)
from .hall import is_hall, is_lts_hall, lts_hall_rewrite
from .normal import (FuelExhausted, RewriteTrace, check_trace, enumerate_B,
                     graded_dim, is_B, lat_project, normalize)
from .yamaguti import check_ly_axioms, ly_binary, ly_triple
from .exprs import parse_algebra, parse_tensor, render_lincomb, render_term

__version__ = "0.1.0"
