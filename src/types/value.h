#ifndef DATASPREAD_TYPES_VALUE_H_
#define DATASPREAD_TYPES_VALUE_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/result.h"
#include "types/data_type.h"

namespace dataspread {

/// A dynamically typed scalar shared by the spreadsheet and the database.
///
/// The value space is NULL ∪ BOOL ∪ INT64 ∪ REAL ∪ TEXT ∪ ERROR. Error values
/// (e.g. `#DIV/0!`) exist only on the interface side; relational operations
/// treat them as type errors.
class Value {
 public:
  /// NULL value.
  Value() : data_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Bool(bool v) { return Value(Payload(v)); }
  static Value Int(int64_t v) { return Value(Payload(v)); }
  static Value Real(double v) { return Value(Payload(v)); }
  static Value Text(std::string v) { return Value(Payload(std::move(v))); }
  /// Spreadsheet error value; `code` like "#DIV/0!", "#REF!", "#CYCLE!".
  static Value Error(std::string code) {
    Value v;
    v.data_ = ErrorPayload{std::move(code)};
    return v;
  }

  /// Spreadsheet-style dynamic typing of raw user input (§2.2 "Data typing"):
  /// "" → NULL, integer literal → INT, numeric literal → REAL,
  /// TRUE/FALSE (case-insensitive) → BOOL, anything else → TEXT.
  static Value FromUserInput(std::string_view text);

  DataType type() const;
  bool is_null() const { return std::holds_alternative<std::monostate>(data_); }
  bool is_error() const { return std::holds_alternative<ErrorPayload>(data_); }
  bool is_numeric() const { return IsNumeric(type()); }
  /// Inline tests of one type, for per-value loops.
  bool is_int() const { return std::holds_alternative<int64_t>(data_); }
  bool is_real() const { return std::holds_alternative<double>(data_); }
  bool is_bool() const { return std::holds_alternative<bool>(data_); }
  bool is_text() const { return std::holds_alternative<std::string>(data_); }

  /// Typed accessors; only valid when type() matches.
  bool bool_value() const { return std::get<bool>(data_); }
  int64_t int_value() const { return std::get<int64_t>(data_); }
  double real_value() const { return std::get<double>(data_); }
  const std::string& text_value() const { return std::get<std::string>(data_); }
  const std::string& error_code() const {
    return std::get<ErrorPayload>(data_).code;
  }

  /// Numeric view: INT and REAL convert; BOOL counts 0/1 (spreadsheet rule).
  /// Fails with TypeError for TEXT/NULL/ERROR.
  Result<double> AsReal() const;
  /// Integer view: INT passes through; REAL must be integral.
  Result<int64_t> AsInt() const;
  /// Truthiness: BOOL passes through; numerics are non-zero. Fails otherwise.
  Result<bool> AsBool() const;

  /// Display text (what a cell shows): NULL → "", 3.0 → "3", TRUE/FALSE,
  /// errors show their code.
  std::string ToDisplayString() const;
  /// Debug/SQL-literal rendering: NULL, 'quoted text', TRUE, 1.5.
  std::string ToSqlLiteral() const;

  /// Total order used by ORDER BY and comparisons across numeric types:
  /// NULL < BOOL < numeric (INT and REAL compare by magnitude) < TEXT < ERROR.
  /// Returns <0, 0, >0.
  static int Compare(const Value& a, const Value& b);

  /// SQL equality semantics for grouping/joins: INT 1 equals REAL 1.0.
  bool operator==(const Value& other) const {
    return Compare(*this, other) == 0;
  }
  bool operator!=(const Value& other) const { return !(*this == other); }
  bool operator<(const Value& other) const { return Compare(*this, other) < 0; }

  /// Hash consistent with operator== (numeric 1 and 1.0 hash equally).
  size_t Hash() const;

  /// Best-effort cast used when storing into a typed column; NULL passes
  /// through any type.
  Result<Value> CastTo(DataType target) const;

 private:
  struct ErrorPayload {
    std::string code;
    bool operator==(const ErrorPayload& o) const { return code == o.code; }
  };
  using Payload =
      std::variant<std::monostate, bool, int64_t, double, std::string>;
  using Storage = std::variant<std::monostate, bool, int64_t, double,
                               std::string, ErrorPayload>;

  explicit Value(Payload p) {
    std::visit([this](auto&& v) { data_ = std::move(v); }, std::move(p));
  }

  Storage data_;
};

/// GoogleTest/debug printing: "INTEGER(42)", "TEXT('x')", "NULL".
void PrintTo(const Value& v, std::ostream* os);

/// One relational tuple / one sheet row slice.
using Row = std::vector<Value>;

/// Hash functor for Value keys in unordered containers.
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

/// Hash functor for composite keys (group-by, hash join).
struct RowHash {
  size_t operator()(const Row& row) const;
};

/// Element-wise equality consistent with RowHash.
struct RowEq {
  bool operator()(const Row& a, const Row& b) const;
};

}  // namespace dataspread

#endif  // DATASPREAD_TYPES_VALUE_H_
