// Recursive-descent parser for the ViteX XPath fragment.
//
// Supported grammar (XP{/,//,*,[]} of the paper, plus the attribute and
// text() features the paper's own example queries use):
//
//   Query      := ('/' | '//') Step ( ('/' | '//') Step )*
//   Step       := '@' (Name | '*') | NodeTest Predicate*
//   NodeTest   := Name | '*' | 'text' '(' ')'
//   Predicate  := '[' OrExpr ']'
//   OrExpr     := AndExpr ( 'or' AndExpr )*
//   AndExpr    := Unary ( 'and' Unary )*
//   Unary      := 'not' '(' OrExpr ')' | '(' OrExpr ')' | Cmp
//   Cmp        := Operand ( CmpOp (String | Number) )?
//              |  (String | Number) CmpOp Operand
//   Operand    := RelPath | '.'
//   RelPath    := ('.')? ('/' | '//')? Step ( ('/' | '//') Step )*
//
// Inside predicates, a leading '//' is interpreted relative to the context
// node (as './/'), which matches user intent in streaming queries; truly
// absolute predicate paths are outside the fragment.

#ifndef VITEX_XPATH_PARSER_H_
#define VITEX_XPATH_PARSER_H_

#include <string_view>

#include "common/result.h"
#include "xpath/ast.h"

namespace vitex::xpath {

/// Parses a complete XPath query. The result is always an absolute path with
/// at least one step. Rejects '|' unions, which are outside the fragment.
Result<Path> ParseXPath(std::string_view query);

}  // namespace vitex::xpath

#endif  // VITEX_XPATH_PARSER_H_
