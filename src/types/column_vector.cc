#include "types/column_vector.h"

namespace dataspread {

namespace {

template <typename T>
int Cmp(const T& a, const T& b) {
  if (a < b) return -1;
  if (b < a) return 1;
  return 0;
}

}  // namespace

ColumnKind KindForType(DataType type) {
  switch (type) {
    case DataType::kInt:
      return ColumnKind::kInt;
    case DataType::kReal:
      return ColumnKind::kReal;
    case DataType::kBool:
      return ColumnKind::kBool;
    case DataType::kText:
      return ColumnKind::kText;
    default:
      return ColumnKind::kValue;
  }
}

void ColumnVector::Reset(ColumnKind kind) {
  kind_ = kind;
  size_ = 0;
  nulls_.clear();
  ints_.clear();
  reals_.clear();
  bools_.clear();
  texts_.clear();
  arena_.clear();
  values_.clear();
}

void ColumnVector::Reserve(size_t n) {
  switch (kind_) {
    case ColumnKind::kAbsent:
      break;
    case ColumnKind::kValue:
      values_.reserve(n);
      break;
    case ColumnKind::kInt:
      ints_.reserve(n);
      break;
    case ColumnKind::kReal:
      reals_.reserve(n);
      break;
    case ColumnKind::kBool:
      bools_.reserve(n);
      break;
    case ColumnKind::kText:
      texts_.reserve(n);
      break;
  }
}

void ColumnVector::AppendStrided(const Value* v, size_t stride, size_t n) {
  // Each loop re-reads kind_: a value the kind cannot hold demotes the
  // column, and the rest of the run then appends as Values.
  auto run = [&](ColumnKind kind, auto holds, auto append) {
    for (size_t t = 0; t < n; ++t, v += stride) {
      if (kind_ == kind && holds(*v)) {
        append(*v);
      } else {
        Append(*v);
      }
    }
  };
  switch (kind_) {
    case ColumnKind::kInt:
      ints_.reserve(ints_.size() + n);
      return run(ColumnKind::kInt, [](const Value& x) { return x.is_int(); },
                 [this](const Value& x) { AppendInt(x.int_value()); });
    case ColumnKind::kReal:
      reals_.reserve(reals_.size() + n);
      return run(ColumnKind::kReal, [](const Value& x) { return x.is_real(); },
                 [this](const Value& x) { AppendReal(x.real_value()); });
    case ColumnKind::kText:
      texts_.reserve(texts_.size() + n);
      return run(ColumnKind::kText, [](const Value& x) { return x.is_text(); },
                 [this](const Value& x) { AppendText(x.text_value()); });
    default:
      for (size_t t = 0; t < n; ++t, v += stride) Append(*v);
  }
}

void ColumnVector::AppendFrom(const ColumnVector& src, size_t pos) {
  if (kind_ == ColumnKind::kAbsent) {
    ++size_;
    return;
  }
  if (kind_ != src.kind_) {
    AppendMove(src.GetValue(pos));
    return;
  }
  if (kind_ == ColumnKind::kValue) {
    values_.push_back(src.values_[pos]);
    return;
  }
  if (src.IsNull(pos)) {
    AppendNull();
    return;
  }
  switch (kind_) {
    case ColumnKind::kInt:
      AppendInt(src.ints_[pos]);
      break;
    case ColumnKind::kReal:
      AppendReal(src.reals_[pos]);
      break;
    case ColumnKind::kBool:
      AppendBool(src.bools_[pos] != 0);
      break;
    case ColumnKind::kText:
      AppendText(src.text_at(pos));
      break;
    default:
      break;
  }
}

Value ColumnVector::GetValue(size_t pos) const {
  if (kind_ == ColumnKind::kValue) return values_[pos];
  if (IsNull(pos)) return Value::Null();
  switch (kind_) {
    case ColumnKind::kInt:
      return Value::Int(ints_[pos]);
    case ColumnKind::kReal:
      return Value::Real(reals_[pos]);
    case ColumnKind::kBool:
      return Value::Bool(bools_[pos] != 0);
    case ColumnKind::kText:
      return Value::Text(std::string(text_at(pos)));
    default:
      return Value::Null();
  }
}

int ColumnVector::CompareTo(size_t pos, const Value& v) const {
  if (kind_ == ColumnKind::kValue) return Value::Compare(values_[pos], v);
  // NULL sorts first and equals only NULL (Value::Compare's type ranks).
  if (IsNull(pos)) return v.is_null() ? 0 : -1;
  if (v.is_null()) return 1;
  switch (kind_) {
    case ColumnKind::kInt:
      if (v.type() == DataType::kInt) return Cmp(ints_[pos], v.int_value());
      break;
    case ColumnKind::kReal:
      if (v.type() == DataType::kReal) return Cmp(reals_[pos], v.real_value());
      break;
    case ColumnKind::kBool:
      if (v.type() == DataType::kBool) {
        return Cmp(bools_[pos] != 0, v.bool_value());
      }
      break;
    case ColumnKind::kText:
      if (v.type() == DataType::kText) {
        return Cmp(text_at(pos), std::string_view(v.text_value()));
      }
      break;
    default:
      break;
  }
  return Value::Compare(GetValue(pos), v);
}

void ColumnVector::Demote() {
  if (kind_ == ColumnKind::kValue) return;
  std::vector<Value> values;
  values.reserve(size_);
  for (size_t i = 0; i < size_; ++i) values.push_back(GetValue(i));
  Reset(ColumnKind::kValue);
  values_ = std::move(values);
}

size_t ColumnVector::MemoryBytes() const {
  size_t bytes = nulls_.capacity() * sizeof(uint64_t) +
                 ints_.capacity() * sizeof(int64_t) +
                 reals_.capacity() * sizeof(double) + bools_.capacity() +
                 texts_.capacity() * sizeof(TextRef) + arena_.capacity() +
                 values_.capacity() * sizeof(Value);
  for (const Value& v : values_) {
    if (v.type() == DataType::kText) bytes += v.text_value().size();
  }
  return bytes;
}

}  // namespace dataspread
