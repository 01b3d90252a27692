#ifndef DATASPREAD_COMMON_STATUS_H_
#define DATASPREAD_COMMON_STATUS_H_

#include <string>
#include <utility>

namespace dataspread {

/// Error category for a failed operation. The project does not use C++
/// exceptions; every fallible public API returns a Status or Result<T>.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,     ///< Caller passed a malformed or out-of-contract value.
  kNotFound,            ///< Named table/column/cell/binding does not exist.
  kAlreadyExists,       ///< Create collided with an existing object.
  kOutOfRange,          ///< Position/index outside the valid domain.
  kParseError,          ///< SQL or formula text failed to parse.
  kTypeError,           ///< Value of the wrong type for the operation.
  kConstraintViolation, ///< Primary-key or arity constraint broken.
  kCycleDetected,       ///< Formula dependency graph contains a cycle.
  kUnimplemented,       ///< Feature intentionally outside the supported subset.
  kInternal,            ///< Invariant breach; indicates a bug in DataSpread.
  kSerializationConflict, ///< Write-latch conflict; the losing transaction was
                          ///< rolled back and the statement is safe to retry.
  kCorruption,          ///< Persistent state failed a consistency check.
};

/// Human-readable name of a StatusCode (e.g. "InvalidArgument").
const char* StatusCodeName(StatusCode code);

/// Result of an operation that can fail without returning a value.
///
/// Cheap to copy when OK (no allocation). Construct errors through the named
/// factories: `Status::InvalidArgument("bad range")`.
class Status {
 public:
  /// Default-constructed Status is OK.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status TypeError(std::string msg) {
    return Status(StatusCode::kTypeError, std::move(msg));
  }
  static Status ConstraintViolation(std::string msg) {
    return Status(StatusCode::kConstraintViolation, std::move(msg));
  }
  static Status CycleDetected(std::string msg) {
    return Status(StatusCode::kCycleDetected, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status SerializationConflict(std::string msg) {
    return Status(StatusCode::kSerializationConflict, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// Evaluates `expr` (a Status expression) and returns it from the enclosing
/// function if it is not OK.
#define DS_RETURN_IF_ERROR(expr)                   \
  do {                                             \
    ::dataspread::Status _ds_status = (expr);      \
    if (!_ds_status.ok()) return _ds_status;       \
  } while (false)

}  // namespace dataspread

#endif  // DATASPREAD_COMMON_STATUS_H_
