#include "common/status.h"

namespace dataspread {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kParseError:
      return "ParseError";
    case StatusCode::kTypeError:
      return "TypeError";
    case StatusCode::kConstraintViolation:
      return "ConstraintViolation";
    case StatusCode::kCycleDetected:
      return "CycleDetected";
    case StatusCode::kUnimplemented:
      return "Unimplemented";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kSerializationConflict:
      return "SerializationConflict";
    case StatusCode::kCorruption:
      return "Corruption";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeName(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace dataspread
