"""JavaScript static-analysis substrate: tokenizer, ES5 parser, AST, unpacker.

This package substitutes for the paper's Chrome V8 + esprima toolchain. It
provides everything the anti-adblock detector (:mod:`repro.core`) needs:
an ESTree-style AST (:mod:`~repro.jsast.nodes`), a tokenizer and parser, a
generic walker, and a static ``eval()`` unpacker.
"""

from .codegen import CodeGenerator, to_source
from .compare import ast_equal, count_differences, first_difference
from .nodes import Node, Program
from .parser import ParseError, Parser, parse
from .tokenizer import Token, TokenizeError, tokenize
from .unpack import UnpackResult, fold_constant_string, unpack_program, unpack_source
from .walker import count_nodes, find_all, find_first, walk, walk_with_ancestors

__all__ = [
    "CodeGenerator",
    "to_source",
    "ast_equal",
    "count_differences",
    "first_difference",
    "Node",
    "Program",
    "ParseError",
    "Parser",
    "parse",
    "Token",
    "TokenizeError",
    "tokenize",
    "UnpackResult",
    "fold_constant_string",
    "unpack_program",
    "unpack_source",
    "count_nodes",
    "find_all",
    "find_first",
    "walk",
    "walk_with_ancestors",
]
