#ifndef DATASPREAD_TYPES_COLUMN_VECTOR_H_
#define DATASPREAD_TYPES_COLUMN_VECTOR_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "types/data_type.h"
#include "types/value.h"

namespace dataspread {

/// The physical representation of one column of values (DESIGN.md §6b
/// "Batch layout").
enum class ColumnKind : uint8_t {
  kAbsent,  ///< Pruned: no storage; every position reads NULL.
  kValue,   ///< The fallback: one Value per position.
  kInt,     ///< int64_t per position, plus the null bitmap.
  kReal,    ///< double per position, plus the null bitmap.
  kBool,    ///< one byte per position, plus the null bitmap.
  kText,    ///< (offset, length) into the column's own arena, plus the bitmap.
};

/// The typed kind holding the values of a column declared `type`: kInt,
/// kReal, kBool or kText, and kValue for a type without one.
ColumnKind KindForType(DataType type);

/// One column of a RowBatch or of a hash join's build table.
///
/// A typed kind keeps one native value per position and a null bitmap (a
/// set bit marks NULL; the bitmap grows only once a NULL arrives). TEXT
/// bytes are copied into an arena the column owns, so a column never points
/// into a pager frame or into another column. kValue is the fallback for
/// values without a fixed type (RANGETABLE input, ERROR values, expression
/// results). A typed column that is handed a value its kind cannot hold —
/// which a catalog column never yields, since writes are coerced to the
/// declared type — first converts itself to kValue (Demote), so every
/// append is total. kAbsent is a pruned column: appends only count, reads
/// return NULL.
class ColumnVector {
 public:
  ColumnVector() = default;
  explicit ColumnVector(ColumnKind kind) : kind_(kind) {}

  ColumnKind kind() const { return kind_; }
  size_t size() const {
    return kind_ == ColumnKind::kValue ? values_.size() : size_;
  }

  /// Empties the column and gives it `kind`; storage capacity is kept.
  void Reset(ColumnKind kind);
  void Reserve(size_t n);

  // ---- Appends --------------------------------------------------------

  void AppendNull() {
    switch (kind_) {
      case ColumnKind::kAbsent:
        ++size_;
        return;
      case ColumnKind::kValue:
        values_.emplace_back();
        return;
      case ColumnKind::kInt:
        ints_.push_back(0);
        break;
      case ColumnKind::kReal:
        reals_.push_back(0.0);
        break;
      case ColumnKind::kBool:
        bools_.push_back(0);
        break;
      case ColumnKind::kText:
        texts_.push_back(TextRef{arena_.size(), 0});
        break;
    }
    MarkNull(size_++);
  }
  void AppendNulls(size_t n) {
    if (kind_ == ColumnKind::kAbsent) {
      size_ += n;
      return;
    }
    for (size_t i = 0; i < n; ++i) AppendNull();
  }
  /// Typed appends: the column's kind must be the matching one.
  void AppendInt(int64_t v) {
    ints_.push_back(v);
    ++size_;
  }
  void AppendReal(double v) {
    reals_.push_back(v);
    ++size_;
  }
  void AppendBool(bool v) {
    bools_.push_back(v ? 1 : 0);
    ++size_;
  }
  void AppendText(std::string_view v) {
    texts_.push_back(TextRef{arena_.size(), v.size()});
    arena_.append(v.data(), v.size());
    ++size_;
  }

  /// Appends `v` in the column's kind (demoting first if the kind cannot
  /// hold it).
  void Append(const Value& v) {
    if (kind_ == ColumnKind::kValue) {
      values_.push_back(v);
    } else if (!AppendTyped(v)) {
      Demote();
      values_.push_back(v);
    }
  }
  void AppendMove(Value&& v) {
    if (kind_ == ColumnKind::kValue) {
      values_.push_back(std::move(v));
    } else if (!AppendTyped(v)) {
      Demote();
      values_.push_back(std::move(v));
    }
  }
  /// Appends `v[0], v[stride], ...` (`n` values): Append in a loop with
  /// the kind dispatch hoisted — the bulk path of a storage gather.
  void AppendStrided(const Value* v, size_t stride, size_t n);
  /// Appends position `pos` of `src`: a native copy when the kinds match,
  /// otherwise through a Value.
  void AppendFrom(const ColumnVector& src, size_t pos);
  /// AppendFrom that moves a kValue position out of `src` (it must not be
  /// read again).
  void AppendTake(ColumnVector& src, size_t pos) {
    if (kind_ == ColumnKind::kValue && src.kind_ == ColumnKind::kValue) {
      values_.push_back(std::move(src.values_[pos]));
    } else {
      AppendFrom(src, pos);
    }
  }

  // ---- Reads ----------------------------------------------------------

  bool IsNull(size_t pos) const {
    switch (kind_) {
      case ColumnKind::kAbsent:
        return true;
      case ColumnKind::kValue:
        return values_[pos].is_null();
      default:
        return (pos >> 6) < nulls_.size() &&
               ((nulls_[pos >> 6] >> (pos & 63)) & 1) != 0;
    }
  }
  /// True for a typed column none of whose positions is NULL.
  bool no_nulls() const {
    return kind_ != ColumnKind::kAbsent && kind_ != ColumnKind::kValue &&
           nulls_.empty();
  }

  /// Native reads; valid for the matching kind at non-NULL positions.
  int64_t int_at(size_t pos) const { return ints_[pos]; }
  double real_at(size_t pos) const { return reals_[pos]; }
  bool bool_at(size_t pos) const { return bools_[pos] != 0; }
  std::string_view text_at(size_t pos) const {
    return std::string_view(arena_.data() + texts_[pos].offset,
                            texts_[pos].length);
  }
  /// kValue only.
  const Value& value_at(size_t pos) const { return values_[pos]; }

  /// The value at `pos` as a Value (a copy).
  Value GetValue(size_t pos) const;
  /// Like GetValue, but moves a kValue position out (it must not be read
  /// again).
  Value TakeValue(size_t pos) {
    if (kind_ == ColumnKind::kValue) return std::move(values_[pos]);
    return GetValue(pos);
  }
  /// Value::Compare(GetValue(pos), v), without building a Value when the
  /// position and `v` are of the same type.
  int CompareTo(size_t pos, const Value& v) const;

  /// Makes the column an empty kValue column and returns its values, for
  /// writers that produce Values in bulk (the expression evaluator).
  std::vector<Value>* MutableValues() {
    Reset(ColumnKind::kValue);
    return &values_;
  }

  /// Heap bytes held: native vectors, arena, bitmap, Values and their text.
  size_t MemoryBytes() const;

 private:
  struct TextRef {
    size_t offset, length;
  };

  /// Converts the contents to kValue, keeping every position.
  void Demote();

  /// Appends a non-kValue column's native form of `v`; false when the kind
  /// cannot hold it.
  bool AppendTyped(const Value& v) {
    switch (kind_) {
      case ColumnKind::kInt:
        if (!v.is_int()) break;
        AppendInt(v.int_value());
        return true;
      case ColumnKind::kReal:
        if (!v.is_real()) break;
        AppendReal(v.real_value());
        return true;
      case ColumnKind::kBool:
        if (!v.is_bool()) break;
        AppendBool(v.bool_value());
        return true;
      case ColumnKind::kText:
        if (!v.is_text()) break;
        AppendText(v.text_value());
        return true;
      default:  // kAbsent: a pruned column drops what it is handed
        ++size_;
        return true;
    }
    if (!v.is_null()) return false;
    AppendNull();
    return true;
  }

  void MarkNull(size_t pos) {
    if ((pos >> 6) >= nulls_.size()) nulls_.resize((pos >> 6) + 1, 0);
    nulls_[pos >> 6] |= uint64_t{1} << (pos & 63);
  }

  ColumnKind kind_ = ColumnKind::kValue;
  size_t size_ = 0;  // positions held, for every kind but kValue
  std::vector<uint64_t> nulls_;  // bit set = NULL; empty = no NULL yet
  std::vector<int64_t> ints_;
  std::vector<double> reals_;
  std::vector<uint8_t> bools_;
  std::vector<TextRef> texts_;
  std::string arena_;
  std::vector<Value> values_;
};

}  // namespace dataspread

#endif  // DATASPREAD_TYPES_COLUMN_VECTOR_H_
