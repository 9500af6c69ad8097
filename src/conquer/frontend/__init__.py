from .lexer import Token, tokenize
from .lower import (
    Interpretation,
    ParseResult,
    compile_macro,
    compile_schema_queries,
    disambiguate,
    lower_query,
    parse,
    parse_list,
)
from .records import ListStatement, dump_records

__all__ = [
    "Token",
    "tokenize",
    "parse",
    "parse_list",
    "lower_query",
    "disambiguate",
    "compile_macro",
    "compile_schema_queries",
    "Interpretation",
    "ParseResult",
    "ListStatement",
    "dump_records",
]
