#include "exec/expr_eval.h"

#include <cmath>
#include <memory>
#include <type_traits>

#include "common/str_util.h"
#include "common/wrapping_arith.h"

namespace dataspread {

namespace {

using sql::Expr;
using sql::ExprKind;

/// Binary operators as a dense code so the batch evaluator can resolve the
/// string once per node per batch; the scalar path resolves per call (the
/// same string compares it always did).
enum class BinOpCode {
  kAdd, kSub, kMul, kDiv, kMod, kConcat,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kLike, kAnd, kOr, kUnknown,
};

BinOpCode ResolveBinOp(const std::string& op) {
  if (op == "+") return BinOpCode::kAdd;
  if (op == "-") return BinOpCode::kSub;
  if (op == "*") return BinOpCode::kMul;
  if (op == "/") return BinOpCode::kDiv;
  if (op == "%") return BinOpCode::kMod;
  if (op == "||") return BinOpCode::kConcat;
  if (op == "=") return BinOpCode::kEq;
  if (op == "<>") return BinOpCode::kNe;
  if (op == "<") return BinOpCode::kLt;
  if (op == "<=") return BinOpCode::kLe;
  if (op == ">") return BinOpCode::kGt;
  if (op == ">=") return BinOpCode::kGe;
  if (op == "LIKE") return BinOpCode::kLike;
  if (op == "AND") return BinOpCode::kAnd;
  if (op == "OR") return BinOpCode::kOr;
  return BinOpCode::kUnknown;
}

bool IsArithCode(BinOpCode c) {
  return c == BinOpCode::kAdd || c == BinOpCode::kSub ||
         c == BinOpCode::kMul || c == BinOpCode::kDiv ||
         c == BinOpCode::kMod || c == BinOpCode::kConcat;
}

bool IsCompareCode(BinOpCode c) {
  return c == BinOpCode::kEq || c == BinOpCode::kNe || c == BinOpCode::kLt ||
         c == BinOpCode::kLe || c == BinOpCode::kGt || c == BinOpCode::kGe;
}

/// The shared INTEGER operator of kAdd, kSub or kMul.
IntArithOp IntArithOf(BinOpCode c) {
  return c == BinOpCode::kAdd   ? IntArithOp::kAdd
         : c == BinOpCode::kSub ? IntArithOp::kSub
                                : IntArithOp::kMul;
}

/// INTEGER `x % y` for a non-zero `y`. A divisor of -1 always leaves 0; it
/// is answered before the division, which traps for INT64_MIN % -1.
int64_t IntMod(int64_t x, int64_t y) { return y == -1 ? 0 : x % y; }

/// Numeric addition/subtraction/multiplication preserving INT when both sides
/// are INT (with wrap-around like typical engines), REAL otherwise. The one
/// per-value kernel behind both the scalar and the batch evaluator.
Result<Value> ArithCode(BinOpCode op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (op == BinOpCode::kConcat) {
    // String concatenation coerces displayable operands.
    return Value::Text(a.ToDisplayString() + b.ToDisplayString());
  }
  if (a.type() == DataType::kInt && b.type() == DataType::kInt) {
    int64_t x = a.int_value();
    int64_t y = b.int_value();
    switch (op) {
      case BinOpCode::kAdd:
      case BinOpCode::kSub:
      case BinOpCode::kMul:
        return Value::Int(WrappingArith(IntArithOf(op), x, y));
      case BinOpCode::kMod:
        if (y == 0) return Status::InvalidArgument("division by zero");
        return Value::Int(IntMod(x, y));
      case BinOpCode::kDiv:
        if (y == 0) return Status::InvalidArgument("division by zero");
        // x / -1 negates, wrapping INT64_MIN the way * does.
        if (y == -1) return Value::Int(WrappingArith(IntArithOp::kSub, 0, x));
        if (x % y == 0) return Value::Int(x / y);
        return Value::Real(static_cast<double>(x) / static_cast<double>(y));
      default: break;
    }
  }
  DS_ASSIGN_OR_RETURN(double x, a.AsReal());
  DS_ASSIGN_OR_RETURN(double y, b.AsReal());
  switch (op) {
    case BinOpCode::kAdd: return Value::Real(x + y);
    case BinOpCode::kSub: return Value::Real(x - y);
    case BinOpCode::kMul: return Value::Real(x * y);
    case BinOpCode::kDiv:
      if (y == 0.0) return Status::InvalidArgument("division by zero");
      return Value::Real(x / y);
    case BinOpCode::kMod:
      if (y == 0.0) return Status::InvalidArgument("division by zero");
      return Value::Real(std::fmod(x, y));
    default: break;
  }
  return Status::Internal("unknown arithmetic operator");
}

Result<Value> CompareCode(BinOpCode op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  // Numeric-vs-text comparisons are type errors rather than silent falsity.
  bool numeric_mix = (a.is_numeric() && b.type() == DataType::kText) ||
                     (b.is_numeric() && a.type() == DataType::kText);
  if (numeric_mix) {
    return Status::TypeError("cannot compare " +
                             std::string(DataTypeName(a.type())) + " with " +
                             DataTypeName(b.type()));
  }
  int c = Value::Compare(a, b);
  switch (op) {
    case BinOpCode::kEq: return Value::Bool(c == 0);
    case BinOpCode::kNe: return Value::Bool(c != 0);
    case BinOpCode::kLt: return Value::Bool(c < 0);
    case BinOpCode::kLe: return Value::Bool(c <= 0);
    case BinOpCode::kGt: return Value::Bool(c > 0);
    case BinOpCode::kGe: return Value::Bool(c >= 0);
    default: break;
  }
  return Status::Internal("unknown comparison operator");
}

Result<Value> LikeKernel(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (a.type() != DataType::kText || b.type() != DataType::kText) {
    return Status::TypeError("LIKE expects TEXT operands");
  }
  return Value::Bool(LikeMatch(a.text_value(), b.text_value()));
}

Result<Value> UnaryKernel(const Expr& e, const Value& a) {
  if (e.op == "NOT") {
    if (a.is_null()) return Value::Null();
    DS_ASSIGN_OR_RETURN(bool b, a.AsBool());
    return Value::Bool(!b);
  }
  if (e.op == "-") {
    if (a.is_null()) return Value::Null();
    if (a.type() == DataType::kInt) {  // wraps INT64_MIN, like x / -1
      return Value::Int(WrappingArith(IntArithOp::kSub, 0, a.int_value()));
    }
    DS_ASSIGN_OR_RETURN(double d, a.AsReal());
    return Value::Real(-d);
  }
  return Status::Internal("unknown unary operator " + e.op);
}

/// The scalar-function kernel over already-evaluated arguments — shared by
/// the per-row and the per-batch driver so the function library has exactly
/// one semantics.
Result<Value> ApplyScalarFunction(const Expr& e, std::vector<Value> args) {
  auto arity = [&](size_t lo, size_t hi) -> Status {
    if (args.size() < lo || args.size() > hi) {
      return Status::InvalidArgument(e.op + " expects " + std::to_string(lo) +
                                     (hi > lo ? ".." + std::to_string(hi) : "") +
                                     " arguments");
    }
    return Status::OK();
  };
  if (e.op == "ABS") {
    DS_RETURN_IF_ERROR(arity(1, 1));
    if (args[0].is_null()) return Value::Null();
    if (args[0].type() == DataType::kInt) {
      int64_t v = args[0].int_value();
      return Value::Int(v < 0 ? -v : v);
    }
    DS_ASSIGN_OR_RETURN(double d, args[0].AsReal());
    return Value::Real(std::fabs(d));
  }
  if (e.op == "ROUND") {
    DS_RETURN_IF_ERROR(arity(1, 2));
    if (args[0].is_null()) return Value::Null();
    DS_ASSIGN_OR_RETURN(double d, args[0].AsReal());
    int64_t digits = 0;
    if (args.size() == 2 && !args[1].is_null()) {
      DS_ASSIGN_OR_RETURN(digits, args[1].AsInt());
    }
    double scale = std::pow(10.0, static_cast<double>(digits));
    return Value::Real(std::round(d * scale) / scale);
  }
  if (e.op == "FLOOR" || e.op == "CEIL") {
    DS_RETURN_IF_ERROR(arity(1, 1));
    if (args[0].is_null()) return Value::Null();
    DS_ASSIGN_OR_RETURN(double d, args[0].AsReal());
    double r = e.op == "FLOOR" ? std::floor(d) : std::ceil(d);
    return Value::Int(static_cast<int64_t>(r));
  }
  if (e.op == "LOWER" || e.op == "UPPER") {
    DS_RETURN_IF_ERROR(arity(1, 1));
    if (args[0].is_null()) return Value::Null();
    std::string s = args[0].ToDisplayString();
    return Value::Text(e.op == "LOWER" ? ToLower(s) : ToUpper(s));
  }
  if (e.op == "LENGTH") {
    DS_RETURN_IF_ERROR(arity(1, 1));
    if (args[0].is_null()) return Value::Null();
    return Value::Int(static_cast<int64_t>(args[0].ToDisplayString().size()));
  }
  if (e.op == "SUBSTR") {
    DS_RETURN_IF_ERROR(arity(2, 3));
    if (args[0].is_null()) return Value::Null();
    std::string s = args[0].ToDisplayString();
    DS_ASSIGN_OR_RETURN(int64_t start, args[1].AsInt());  // 1-based
    int64_t len = static_cast<int64_t>(s.size());
    if (args.size() == 3 && !args[2].is_null()) {
      DS_ASSIGN_OR_RETURN(len, args[2].AsInt());
    }
    if (start < 1) start = 1;
    if (static_cast<size_t>(start) > s.size() || len <= 0) return Value::Text("");
    return Value::Text(s.substr(static_cast<size_t>(start - 1),
                                static_cast<size_t>(len)));
  }
  if (e.op == "TRIM") {
    DS_RETURN_IF_ERROR(arity(1, 1));
    if (args[0].is_null()) return Value::Null();
    return Value::Text(Trim(args[0].ToDisplayString()));
  }
  if (e.op == "COALESCE") {
    for (Value& v : args) {
      if (!v.is_null()) return std::move(v);
    }
    return Value::Null();
  }
  if (e.op == "NULLIF") {
    DS_RETURN_IF_ERROR(arity(2, 2));
    if (!args[0].is_null() && !args[1].is_null() && args[0] == args[1]) {
      return Value::Null();
    }
    return std::move(args[0]);
  }
  if (e.op == "CONCAT") {
    std::string out;
    for (const Value& v : args) out += v.ToDisplayString();
    return Value::Text(std::move(out));
  }
  return Status::NotFound("unknown function " + e.op);
}

}  // namespace

bool LikeMatch(std::string_view text, std::string_view pattern) {
  // Iterative two-pointer match with backtracking on the last '%'.
  size_t t = 0, p = 0;
  size_t star_p = std::string_view::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

// ---------------------------------------------------------------------------
// Scalar driver (one row at a time: DML, HAVING and finalize, formulas)
// ---------------------------------------------------------------------------

Result<Value> EvalScalar(const sql::Expr& e, const Row* input,
                         const std::vector<Value>* agg_values) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return e.literal;
    case ExprKind::kColumnRef: {
      if (input == nullptr || e.bound_column < 0 ||
          static_cast<size_t>(e.bound_column) >= input->size()) {
        return Status::Internal("unbound column reference " + e.ToString());
      }
      return (*input)[static_cast<size_t>(e.bound_column)];
    }
    case ExprKind::kRangeValue:
      return Status::Internal("RANGEVALUE survived binding: " + e.ToString());
    case ExprKind::kUnary: {
      DS_ASSIGN_OR_RETURN(Value a, EvalScalar(*e.args[0], input, agg_values));
      return UnaryKernel(e, a);
    }
    case ExprKind::kBinary: {
      BinOpCode code = ResolveBinOp(e.op);
      // Three-valued AND/OR must not evaluate eagerly into errors when the
      // other side decides the result, so handle them with short-circuiting.
      if (code == BinOpCode::kAnd || code == BinOpCode::kOr) {
        DS_ASSIGN_OR_RETURN(Value a, EvalScalar(*e.args[0], input, agg_values));
        bool is_and = code == BinOpCode::kAnd;
        if (!a.is_null()) {
          DS_ASSIGN_OR_RETURN(bool av, a.AsBool());
          if (is_and && !av) return Value::Bool(false);
          if (!is_and && av) return Value::Bool(true);
        }
        DS_ASSIGN_OR_RETURN(Value b, EvalScalar(*e.args[1], input, agg_values));
        if (!b.is_null()) {
          DS_ASSIGN_OR_RETURN(bool bv, b.AsBool());
          if (is_and && !bv) return Value::Bool(false);
          if (!is_and && bv) return Value::Bool(true);
        }
        if (a.is_null() || b.is_null()) return Value::Null();
        return Value::Bool(is_and);
      }
      DS_ASSIGN_OR_RETURN(Value a, EvalScalar(*e.args[0], input, agg_values));
      DS_ASSIGN_OR_RETURN(Value b, EvalScalar(*e.args[1], input, agg_values));
      if (IsArithCode(code)) return ArithCode(code, a, b);
      if (code == BinOpCode::kLike) return LikeKernel(a, b);
      if (IsCompareCode(code)) return CompareCode(code, a, b);
      return Status::Internal("unknown binary operator " + e.op);
    }
    case ExprKind::kIsNull: {
      DS_ASSIGN_OR_RETURN(Value a, EvalScalar(*e.args[0], input, agg_values));
      return Value::Bool(e.negated ? !a.is_null() : a.is_null());
    }
    case ExprKind::kInList: {
      DS_ASSIGN_OR_RETURN(Value needle, EvalScalar(*e.args[0], input, agg_values));
      if (needle.is_null()) return Value::Null();
      bool saw_null = false;
      for (size_t i = 1; i < e.args.size(); ++i) {
        DS_ASSIGN_OR_RETURN(Value item, EvalScalar(*e.args[i], input, agg_values));
        if (item.is_null()) {
          saw_null = true;
          continue;
        }
        if (item == needle) return Value::Bool(!e.negated);
      }
      if (saw_null) return Value::Null();
      return Value::Bool(e.negated);
    }
    case ExprKind::kCase: {
      size_t i = 0;
      for (; i + 1 < e.args.size(); i += 2) {
        DS_ASSIGN_OR_RETURN(Value cond, EvalScalar(*e.args[i], input, agg_values));
        if (!cond.is_null()) {
          DS_ASSIGN_OR_RETURN(bool b, cond.AsBool());
          if (b) return EvalScalar(*e.args[i + 1], input, agg_values);
        }
      }
      if (i < e.args.size()) return EvalScalar(*e.args[i], input, agg_values);
      return Value::Null();
    }
    case ExprKind::kFunction: {
      if (sql::IsAggregateFunction(e.op)) {
        if (agg_values == nullptr || e.aggregate_index < 0 ||
            static_cast<size_t>(e.aggregate_index) >= agg_values->size()) {
          return Status::Internal("aggregate " + e.op +
                                  " evaluated outside GROUP BY context");
        }
        return (*agg_values)[static_cast<size_t>(e.aggregate_index)];
      }
      std::vector<Value> args;
      args.reserve(e.args.size());
      for (const sql::ExprPtr& a : e.args) {
        DS_ASSIGN_OR_RETURN(Value v, EvalScalar(*a, input, agg_values));
        args.push_back(std::move(v));
      }
      return ApplyScalarFunction(e, std::move(args));
    }
  }
  return Status::Internal("unhandled expression kind");
}

Result<bool> EvalPredicate(const sql::Expr& e, const Row* input,
                           const std::vector<Value>* agg_values) {
  DS_ASSIGN_OR_RETURN(Value v, EvalScalar(e, input, agg_values));
  if (v.is_null()) return false;
  return v.AsBool();
}

// ---------------------------------------------------------------------------
// Batch (vectorized) driver
// ---------------------------------------------------------------------------

namespace {

/// Recursive worker: computes `e` at `active` positions into `(*out)[pos]`.
/// `out` is pre-sized to batch.size() by the entry point; children get their
/// own temporaries so sibling results never alias.
Status EvalBatchInto(const Expr& e, const RowBatch& batch,
                     const std::vector<uint32_t>& active,
                     std::vector<Value>* out) {
  switch (e.kind) {
    case ExprKind::kLiteral: {
      for (uint32_t pos : active) (*out)[pos] = e.literal;
      return Status::OK();
    }
    case ExprKind::kColumnRef: {
      if (e.bound_column < 0 ||
          static_cast<size_t>(e.bound_column) >= batch.num_columns()) {
        return Status::Internal("unbound column reference " + e.ToString());
      }
      const ColumnVector& col =
          batch.column(static_cast<size_t>(e.bound_column));
      for (uint32_t pos : active) (*out)[pos] = col.GetValue(pos);
      return Status::OK();
    }
    case ExprKind::kRangeValue:
      return Status::Internal("RANGEVALUE survived binding: " + e.ToString());
    case ExprKind::kUnary: {
      std::vector<Value> a(batch.size());
      DS_RETURN_IF_ERROR(EvalBatchInto(*e.args[0], batch, active, &a));
      for (uint32_t pos : active) {
        DS_ASSIGN_OR_RETURN((*out)[pos], UnaryKernel(e, a[pos]));
      }
      return Status::OK();
    }
    case ExprKind::kBinary: {
      BinOpCode code = ResolveBinOp(e.op);
      if (code == BinOpCode::kAnd || code == BinOpCode::kOr) {
        // Lazy right side: evaluate args[1] only at positions the left side
        // did not decide — exactly the rows the scalar driver reaches it.
        bool is_and = code == BinOpCode::kAnd;
        std::vector<Value> a(batch.size());
        DS_RETURN_IF_ERROR(EvalBatchInto(*e.args[0], batch, active, &a));
        std::vector<uint32_t> undecided;
        undecided.reserve(active.size());
        for (uint32_t pos : active) {
          if (!a[pos].is_null()) {
            DS_ASSIGN_OR_RETURN(bool av, a[pos].AsBool());
            if (is_and && !av) {
              (*out)[pos] = Value::Bool(false);
              continue;
            }
            if (!is_and && av) {
              (*out)[pos] = Value::Bool(true);
              continue;
            }
          }
          undecided.push_back(pos);
        }
        if (undecided.empty()) return Status::OK();
        std::vector<Value> b(batch.size());
        DS_RETURN_IF_ERROR(EvalBatchInto(*e.args[1], batch, undecided, &b));
        for (uint32_t pos : undecided) {
          if (!b[pos].is_null()) {
            DS_ASSIGN_OR_RETURN(bool bv, b[pos].AsBool());
            if (is_and && !bv) {
              (*out)[pos] = Value::Bool(false);
              continue;
            }
            if (!is_and && bv) {
              (*out)[pos] = Value::Bool(true);
              continue;
            }
          }
          (*out)[pos] = a[pos].is_null() || b[pos].is_null()
                            ? Value::Null()
                            : Value::Bool(is_and);
        }
        return Status::OK();
      }
      std::vector<Value> a(batch.size()), b(batch.size());
      DS_RETURN_IF_ERROR(EvalBatchInto(*e.args[0], batch, active, &a));
      DS_RETURN_IF_ERROR(EvalBatchInto(*e.args[1], batch, active, &b));
      if (IsArithCode(code)) {
        for (uint32_t pos : active) {
          DS_ASSIGN_OR_RETURN((*out)[pos], ArithCode(code, a[pos], b[pos]));
        }
        return Status::OK();
      }
      if (code == BinOpCode::kLike) {
        for (uint32_t pos : active) {
          DS_ASSIGN_OR_RETURN((*out)[pos], LikeKernel(a[pos], b[pos]));
        }
        return Status::OK();
      }
      if (IsCompareCode(code)) {
        for (uint32_t pos : active) {
          DS_ASSIGN_OR_RETURN((*out)[pos], CompareCode(code, a[pos], b[pos]));
        }
        return Status::OK();
      }
      return Status::Internal("unknown binary operator " + e.op);
    }
    case ExprKind::kIsNull: {
      std::vector<Value> a(batch.size());
      DS_RETURN_IF_ERROR(EvalBatchInto(*e.args[0], batch, active, &a));
      for (uint32_t pos : active) {
        (*out)[pos] =
            Value::Bool(e.negated ? !a[pos].is_null() : a[pos].is_null());
      }
      return Status::OK();
    }
    case ExprKind::kInList: {
      std::vector<Value> needle(batch.size());
      DS_RETURN_IF_ERROR(EvalBatchInto(*e.args[0], batch, active, &needle));
      // Positions still hunting for a match; list items are evaluated only
      // at these, preserving the scalar driver's stop-at-first-match errors.
      std::vector<uint32_t> undecided;
      undecided.reserve(active.size());
      for (uint32_t pos : active) {
        if (needle[pos].is_null()) {
          (*out)[pos] = Value::Null();
        } else {
          undecided.push_back(pos);
        }
      }
      std::vector<bool> saw_null(batch.size(), false);
      std::vector<Value> item(batch.size());
      for (size_t i = 1; i < e.args.size() && !undecided.empty(); ++i) {
        DS_RETURN_IF_ERROR(EvalBatchInto(*e.args[i], batch, undecided, &item));
        std::vector<uint32_t> still;
        still.reserve(undecided.size());
        for (uint32_t pos : undecided) {
          if (item[pos].is_null()) {
            saw_null[pos] = true;
            still.push_back(pos);
            continue;
          }
          if (item[pos] == needle[pos]) {
            (*out)[pos] = Value::Bool(!e.negated);
          } else {
            still.push_back(pos);
          }
        }
        undecided = std::move(still);
      }
      for (uint32_t pos : undecided) {
        (*out)[pos] = saw_null[pos] ? Value::Null() : Value::Bool(e.negated);
      }
      return Status::OK();
    }
    case ExprKind::kCase: {
      std::vector<uint32_t> remaining = active;
      std::vector<Value> cond(batch.size());
      size_t i = 0;
      for (; i + 1 < e.args.size() && !remaining.empty(); i += 2) {
        DS_RETURN_IF_ERROR(EvalBatchInto(*e.args[i], batch, remaining, &cond));
        std::vector<uint32_t> taken, rest;
        for (uint32_t pos : remaining) {
          bool b = false;
          if (!cond[pos].is_null()) {
            DS_ASSIGN_OR_RETURN(b, cond[pos].AsBool());
          }
          (b ? taken : rest).push_back(pos);
        }
        if (!taken.empty()) {
          DS_RETURN_IF_ERROR(EvalBatchInto(*e.args[i + 1], batch, taken, out));
        }
        remaining = std::move(rest);
      }
      // Skip unreached WHEN/THEN pairs so `i` lands on the ELSE arm if any.
      while (i + 1 < e.args.size()) i += 2;
      if (!remaining.empty()) {
        if (i < e.args.size()) {
          DS_RETURN_IF_ERROR(EvalBatchInto(*e.args[i], batch, remaining, out));
        } else {
          for (uint32_t pos : remaining) (*out)[pos] = Value::Null();
        }
      }
      return Status::OK();
    }
    case ExprKind::kFunction: {
      if (sql::IsAggregateFunction(e.op)) {
        return Status::Internal("aggregate " + e.op +
                                " evaluated outside GROUP BY context");
      }
      std::vector<std::vector<Value>> args(e.args.size());
      for (size_t i = 0; i < e.args.size(); ++i) {
        args[i].resize(batch.size());
        DS_RETURN_IF_ERROR(EvalBatchInto(*e.args[i], batch, active, &args[i]));
      }
      std::vector<Value> call_args(e.args.size());
      for (uint32_t pos : active) {
        for (size_t i = 0; i < e.args.size(); ++i) {
          call_args[i] = std::move(args[i][pos]);
        }
        DS_ASSIGN_OR_RETURN((*out)[pos],
                            ApplyScalarFunction(e, std::move(call_args)));
        call_args.assign(e.args.size(), Value::Null());
      }
      return Status::OK();
    }
  }
  return Status::Internal("unhandled expression kind");
}

}  // namespace

Status EvalScalarBatch(const sql::Expr& e, const RowBatch& batch,
                       const std::vector<uint32_t>& active,
                       std::vector<Value>* out) {
  out->clear();
  out->resize(batch.size());
  if (active.empty()) return Status::OK();
  return EvalBatchInto(e, batch, active, out);
}

namespace {

// ---------------------------------------------------------------------------
// Typed predicate kernels (DESIGN.md §6b "Batch layout")
// ---------------------------------------------------------------------------

/// Three-valued outcomes of the typed kernels, one byte per batch position.
constexpr uint8_t kTriFalse = 0, kTriTrue = 1, kTriNull = 2;

bool IsTypedKind(ColumnKind kind) {
  return kind == ColumnKind::kInt || kind == ColumnKind::kReal ||
         kind == ColumnKind::kBool || kind == ColumnKind::kText;
}

bool IsColumnRef(const Expr& e, const RowBatch& batch) {
  return e.kind == ExprKind::kColumnRef && e.bound_column >= 0 &&
         static_cast<size_t>(e.bound_column) < batch.num_columns();
}

/// The kind of a literal operand (kValue for NULL, which has none).
ColumnKind LiteralKind(const Expr& e) { return KindForType(e.literal.type()); }

ColumnKind OperandKind(const Expr& e, const RowBatch& batch);

/// The kind of `a op b` for a typed arithmetic node: both sides of one
/// numeric kind (literals included, one side at least not a literal) for
/// + - *; an INT operand by a non-zero INT literal for %; a
/// REAL operand by a non-zero REAL literal for /. kValue otherwise — every
/// shape that could raise or change kind falls back.
ColumnKind ArithKind(BinOpCode op, const Expr& a, const Expr& b,
                     const RowBatch& batch) {
  if (a.kind == ExprKind::kLiteral) {
    if (b.kind == ExprKind::kLiteral ||
        (op != BinOpCode::kAdd && op != BinOpCode::kMul)) {
      return ColumnKind::kValue;
    }
    return ArithKind(op, b, a, batch);  // commutative: literal on the right
  }
  ColumnKind kind = OperandKind(a, batch);
  if (kind != ColumnKind::kInt && kind != ColumnKind::kReal) {
    return ColumnKind::kValue;
  }
  bool literal = b.kind == ExprKind::kLiteral;
  if (literal ? LiteralKind(b) != kind : OperandKind(b, batch) != kind) {
    return ColumnKind::kValue;
  }
  switch (op) {
    case BinOpCode::kAdd:
    case BinOpCode::kSub:
    case BinOpCode::kMul:
      return kind;
    case BinOpCode::kMod:
      return kind == ColumnKind::kInt && literal && b.literal.int_value() != 0
                 ? kind
                 : ColumnKind::kValue;
    case BinOpCode::kDiv:
      return kind == ColumnKind::kReal && literal &&
                     b.literal.real_value() != 0.0
                 ? kind
                 : ColumnKind::kValue;
    default:
      return ColumnKind::kValue;
  }
}

/// The native kind `e` evaluates to over `batch` — a column reference's
/// kind, or a typed arithmetic node's (ArithKind) — or kValue when it has
/// none.
ColumnKind OperandKind(const Expr& e, const RowBatch& batch) {
  if (IsColumnRef(e, batch)) {
    return batch.column(static_cast<size_t>(e.bound_column)).kind();
  }
  if (e.kind != ExprKind::kBinary) return ColumnKind::kValue;
  BinOpCode op = ResolveBinOp(e.op);
  if (!IsArithCode(op) || op == BinOpCode::kConcat) return ColumnKind::kValue;
  return ArithKind(op, *e.args[0], *e.args[1], batch);
}

/// True when `e` has a typed kernel over `batch`: a comparison of two
/// operands of one typed kind (typed columns, typed arithmetic over them,
/// and a literal of that kind or NULL on at most one side), or IS [NOT]
/// NULL of a column. None of these shapes can raise, so evaluating them at
/// every live position matches the Value evaluator exactly.
bool HasKernel(const Expr& e, const RowBatch& batch) {
  switch (e.kind) {
    case ExprKind::kIsNull:
      return IsColumnRef(*e.args[0], batch);
    case ExprKind::kBinary: {
      BinOpCode code = ResolveBinOp(e.op);
      if (!IsCompareCode(code)) return false;
      const Expr* a = e.args[0].get();
      const Expr* b = e.args[1].get();
      if (a->kind == ExprKind::kLiteral) std::swap(a, b);
      ColumnKind kind = OperandKind(*a, batch);
      if (!IsTypedKind(kind)) return false;
      if (b->kind == ExprKind::kLiteral) {
        return b->literal.is_null() || LiteralKind(*b) == kind;
      }
      return OperandKind(*b, batch) == kind;
    }
    default:
      return false;
  }
}

/// Scratch columns for typed arithmetic results, alive for one kernel call.
using OperandScratch = std::vector<std::unique_ptr<ColumnVector>>;

template <typename T>
T NativeAt(const ColumnVector& c, size_t pos) {
  if constexpr (std::is_same_v<T, int64_t>) {
    return c.int_at(pos);
  } else {
    return c.real_at(pos);
  }
}

/// `a op b` at every position of the batch (dense: inactive positions hold
/// defined but unread values), NULL where either side is.
template <typename T>
void ArithLoop(BinOpCode op, const ColumnVector& a, const ColumnVector* b,
               T literal, size_t n, ColumnVector* out) {
  const IntArithOp int_op = IntArithOf(op);
  auto apply = [op, int_op](T x, T y) -> T {
    if constexpr (std::is_same_v<T, int64_t>) {
      // kMod's divisor is a non-zero literal (ArithKind).
      return op == BinOpCode::kMod ? IntMod(x, y) : WrappingArith(int_op, x, y);
    } else {
      switch (op) {
        case BinOpCode::kAdd: return x + y;
        case BinOpCode::kSub: return x - y;
        case BinOpCode::kMul: return x * y;
        default: return x / y;  // kDiv, y non-zero
      }
    }
  };
  out->Reset(std::is_same_v<T, int64_t> ? ColumnKind::kInt : ColumnKind::kReal);
  out->Reserve(n);
  const bool nulls = !a.no_nulls() || (b != nullptr && !b->no_nulls());
  for (size_t pos = 0; pos < n; ++pos) {
    if (nulls && (a.IsNull(pos) || (b != nullptr && b->IsNull(pos)))) {
      out->AppendNull();
      continue;
    }
    T y = b != nullptr ? NativeAt<T>(*b, pos) : literal;
    T r = apply(NativeAt<T>(a, pos), y);
    if constexpr (std::is_same_v<T, int64_t>) {
      out->AppendInt(r);
    } else {
      out->AppendReal(r);
    }
  }
}

/// The column of an OperandKind() != kValue expression, holding every
/// position of the batch: the batch's own column for a column reference,
/// else a scratch column appended to `scratch`.
const ColumnVector& EvalOperand(const Expr& e, const RowBatch& batch,
                                OperandScratch* scratch) {
  if (IsColumnRef(e, batch)) {
    return batch.column(static_cast<size_t>(e.bound_column));
  }
  BinOpCode op = ResolveBinOp(e.op);
  const Expr* a = e.args[0].get();
  const Expr* b = e.args[1].get();
  if (a->kind == ExprKind::kLiteral) std::swap(a, b);  // ArithKind's rule
  const ColumnVector& left = EvalOperand(*a, batch, scratch);
  const ColumnVector* right = b->kind == ExprKind::kLiteral
                                  ? nullptr
                                  : &EvalOperand(*b, batch, scratch);
  scratch->push_back(std::make_unique<ColumnVector>());
  ColumnVector* out = scratch->back().get();
  if (left.kind() == ColumnKind::kInt) {
    ArithLoop<int64_t>(op, left, right, right ? 0 : b->literal.int_value(),
                       batch.size(), out);
  } else {
    ArithLoop<double>(op, left, right, right ? 0.0 : b->literal.real_value(),
                      batch.size(), out);
  }
  return *out;
}

uint8_t TriOfCompare(BinOpCode op, int c) {
  bool r = false;
  switch (op) {
    case BinOpCode::kEq: r = c == 0; break;
    case BinOpCode::kNe: r = c != 0; break;
    case BinOpCode::kLt: r = c < 0; break;
    case BinOpCode::kLe: r = c <= 0; break;
    case BinOpCode::kGt: r = c > 0; break;
    default: r = c >= 0; break;  // kGe
  }
  return r ? kTriTrue : kTriFalse;
}

template <typename T>
int Cmp3(const T& a, const T& b) {
  if (a < b) return -1;
  if (b < a) return 1;
  return 0;
}

/// `a op b` at every live position, where `read(x, pos)` is the native
/// value of typed column x (Value::Compare's order for one type) and `b`
/// null stands for `literal`. `flip` reverses the operands (literal left).
template <typename Read, typename T>
void CompareLoop(BinOpCode op, const ColumnVector& a, const ColumnVector* b,
                 const T& literal, bool flip,
                 const std::vector<uint32_t>& active, Read read, uint8_t* out) {
  const bool nulls = !a.no_nulls() || (b != nullptr && !b->no_nulls());
  for (uint32_t pos : active) {
    if (nulls && (a.IsNull(pos) || (b != nullptr && b->IsNull(pos)))) {
      out[pos] = kTriNull;
      continue;
    }
    int c = Cmp3(read(a, pos), b != nullptr ? read(*b, pos) : literal);
    out[pos] = TriOfCompare(op, flip ? -c : c);
  }
}

void CompareTri(BinOpCode op, const Expr& e, const RowBatch& batch,
                const std::vector<uint32_t>& active, OperandScratch* scratch,
                uint8_t* out) {
  const Expr* a = e.args[0].get();
  const Expr* b = e.args[1].get();
  const bool flip = a->kind == ExprKind::kLiteral;
  if (flip) std::swap(a, b);
  const ColumnVector& left = EvalOperand(*a, batch, scratch);
  const ColumnVector* right = nullptr;
  Value literal;
  if (b->kind == ExprKind::kLiteral) {
    literal = b->literal;
    if (literal.is_null()) {
      for (uint32_t pos : active) out[pos] = kTriNull;
      return;
    }
  } else {
    right = &EvalOperand(*b, batch, scratch);
  }
  auto ints = [](const ColumnVector& c, uint32_t p) { return c.int_at(p); };
  auto reals = [](const ColumnVector& c, uint32_t p) { return c.real_at(p); };
  auto bools = [](const ColumnVector& c, uint32_t p) { return c.bool_at(p); };
  auto texts = [](const ColumnVector& c, uint32_t p) { return c.text_at(p); };
  switch (left.kind()) {
    case ColumnKind::kInt:
      return CompareLoop(op, left, right, right ? 0 : literal.int_value(), flip,
                         active, ints, out);
    case ColumnKind::kReal:
      return CompareLoop(op, left, right, right ? 0.0 : literal.real_value(),
                         flip, active, reals, out);
    case ColumnKind::kBool:
      return CompareLoop(op, left, right, right ? false : literal.bool_value(),
                         flip, active, bools, out);
    default:
      return CompareLoop(op, left, right,
                         right ? std::string_view()
                               : std::string_view(literal.text_value()),
                         flip, active, texts, out);
  }
}

/// `e` as a predicate at the live positions into `out` (indexed by
/// position), raising exactly what the scalar evaluator raises there. AND
/// and OR evaluate their left side at every live position and their right
/// side only where the left does not decide, as the scalar evaluator does,
/// so a kernel operand keeps its kernel beside one that falls back; NOT
/// negates its operand. A comparison or IS NULL with a kernel runs it; any
/// other expression goes through EvalScalarBatch and AsBool.
Status PredicateTri(const Expr& e, const RowBatch& batch,
                    const std::vector<uint32_t>& active, uint8_t* out) {
  const BinOpCode code =
      e.kind == ExprKind::kBinary ? ResolveBinOp(e.op) : BinOpCode::kUnknown;
  if (code == BinOpCode::kAnd || code == BinOpCode::kOr) {
    DS_RETURN_IF_ERROR(PredicateTri(*e.args[0], batch, active, out));
    // The deciding value: FALSE for AND, TRUE for OR.
    const uint8_t decides = code == BinOpCode::kAnd ? kTriFalse : kTriTrue;
    std::vector<uint32_t> undecided;
    for (uint32_t pos : active) {
      if (out[pos] != decides) undecided.push_back(pos);
    }
    if (undecided.empty()) return Status::OK();
    std::vector<uint8_t> right(batch.size());
    DS_RETURN_IF_ERROR(
        PredicateTri(*e.args[1], batch, undecided, right.data()));
    for (uint32_t pos : undecided) {
      // The left side is the non-deciding value or NULL here.
      if (right[pos] == decides || right[pos] == kTriNull) {
        out[pos] = right[pos];
      }
    }
    return Status::OK();
  }
  if (e.kind == ExprKind::kUnary && e.op == "NOT") {
    DS_RETURN_IF_ERROR(PredicateTri(*e.args[0], batch, active, out));
    for (uint32_t pos : active) {
      if (out[pos] != kTriNull) out[pos] ^= 1;
    }
    return Status::OK();
  }
  if (HasKernel(e, batch)) {
    if (e.kind == ExprKind::kIsNull) {
      const ColumnVector& col =
          batch.column(static_cast<size_t>(e.args[0]->bound_column));
      for (uint32_t pos : active) {
        out[pos] = col.IsNull(pos) != e.negated ? kTriTrue : kTriFalse;
      }
    } else {
      OperandScratch scratch;
      CompareTri(code, e, batch, active, &scratch, out);
    }
    return Status::OK();
  }
  std::vector<Value> vals;
  DS_RETURN_IF_ERROR(EvalScalarBatch(e, batch, active, &vals));
  for (uint32_t pos : active) {
    if (vals[pos].is_null()) {
      out[pos] = kTriNull;
      continue;
    }
    DS_ASSIGN_OR_RETURN(bool b, vals[pos].AsBool());
    out[pos] = b ? kTriTrue : kTriFalse;
  }
  return Status::OK();
}

}  // namespace

Status EvalPredicateBatch(const sql::Expr& e, const RowBatch& batch,
                          const std::vector<uint32_t>& active,
                          std::vector<uint32_t>* passing) {
  std::vector<uint8_t> tri(batch.size());
  DS_RETURN_IF_ERROR(PredicateTri(e, batch, active, tri.data()));
  passing->reserve(passing->size() + active.size());
  for (uint32_t pos : active) {
    if (tri[pos] == kTriTrue) passing->push_back(pos);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Constant folding
// ---------------------------------------------------------------------------

namespace {

bool IsPure(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kColumnRef:
    case ExprKind::kRangeValue:
      return false;
    case ExprKind::kFunction:
      if (sql::IsAggregateFunction(e.op)) return false;
      break;
    default:
      break;
  }
  for (const sql::ExprPtr& a : e.args) {
    if (a != nullptr && !IsPure(*a)) return false;
  }
  return true;
}

}  // namespace

void FoldConstants(sql::Expr* e) {
  if (e == nullptr || e->kind == ExprKind::kLiteral) return;
  for (sql::ExprPtr& a : e->args) FoldConstants(a.get());
  if (!IsPure(*e)) return;
  // Children folded where possible; fold this node only when all of them
  // reduced to literals (a pure subtree whose evaluation errored stays
  // unfolded, and so does everything above it).
  for (const sql::ExprPtr& a : e->args) {
    if (a != nullptr && a->kind != ExprKind::kLiteral) return;
  }
  auto v = EvalScalar(*e, nullptr);
  if (!v.ok()) return;  // runtime surfaces the error in its true context
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(v).value();
  e->args.clear();
}

}  // namespace dataspread
