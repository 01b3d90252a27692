#include "exec/key_match.h"

#include <cmath>
#include <utility>

namespace dataspread {

namespace {

using sql::Expr;
using sql::ExprKind;

// Every integer of magnitude at most 2^53 is exactly representable as a
// double; past it, INTEGER→REAL conversion rounds.
constexpr double kTwoTo53 = 9007199254740992.0;
constexpr int64_t kTwoTo53Int = int64_t{1} << 53;

/// The key a `<column of type key_type> = literal` predicate can match, or
/// nullopt when no single exactly-hashed key is certain to stand for it.
std::optional<Value> KeyFor(const Value& literal, DataType key_type) {
  if (literal.is_null()) return std::nullopt;
  if (literal.type() == key_type) {
    if (key_type == DataType::kReal && std::isnan(literal.real_value())) {
      return std::nullopt;
    }
    return literal;
  }
  if (key_type == DataType::kInt && literal.type() == DataType::kReal) {
    double d = literal.real_value();
    if (std::fabs(d) < kTwoTo53 && d == std::trunc(d)) {
      return Value::Int(static_cast<int64_t>(d));
    }
  } else if (key_type == DataType::kReal && literal.type() == DataType::kInt) {
    int64_t i = literal.int_value();
    if (i >= -kTwoTo53Int && i <= kTwoTo53Int) {
      return Value::Real(static_cast<double>(i));
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<Value> MatchKeyEquality(const Expr* where, const Schema& schema) {
  auto pk = schema.primary_key_index();
  if (!pk || where == nullptr || where->kind != ExprKind::kBinary ||
      where->op != "=") {
    return std::nullopt;
  }
  const Expr* column = where->args[0].get();
  const Expr* literal = where->args[1].get();
  if (column->kind != ExprKind::kColumnRef) std::swap(column, literal);
  if (column->kind != ExprKind::kColumnRef ||
      column->bound_column != static_cast<int>(*pk) ||
      literal->kind != ExprKind::kLiteral) {
    return std::nullopt;
  }
  return KeyFor(literal->literal, schema.column(*pk).type);
}

}  // namespace dataspread
