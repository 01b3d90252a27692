#ifndef DATASPREAD_COMMON_WRAPPING_ARITH_H_
#define DATASPREAD_COMMON_WRAPPING_ARITH_H_

#include <cstdint>

namespace dataspread {

/// The INTEGER operators that can overflow.
enum class IntArithOp { kAdd, kSub, kMul };

/// INTEGER + - * (`op`) with two's-complement wrap-around, computed unsigned
/// so that overflow is defined: the one overflow rule of SQL expressions and
/// spreadsheet formulas (unary minus is `0 - x`).
inline int64_t WrappingArith(IntArithOp op, int64_t x, int64_t y) {
  uint64_t ux = static_cast<uint64_t>(x), uy = static_cast<uint64_t>(y);
  switch (op) {
    case IntArithOp::kAdd: return static_cast<int64_t>(ux + uy);
    case IntArithOp::kSub: return static_cast<int64_t>(ux - uy);
    case IntArithOp::kMul: break;
  }
  return static_cast<int64_t>(ux * uy);
}

}  // namespace dataspread

#endif  // DATASPREAD_COMMON_WRAPPING_ARITH_H_
