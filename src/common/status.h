#ifndef ICROWD_COMMON_STATUS_H_
#define ICROWD_COMMON_STATUS_H_

#include <string>
#include <utility>

namespace icrowd {

/// Machine-readable category of a Status.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kOutOfRange = 4,
  kFailedPrecondition = 5,
  kUnimplemented = 6,
  kInternal = 7,
  /// Stored bytes are damaged beyond what a crash can leave behind (e.g. a
  /// corrupt journal frame followed by intact ones): nothing is repaired.
  kDataLoss = 8,
};

/// Returns a stable human-readable name for `code` (e.g. "InvalidArgument").
[[nodiscard]] const char* StatusCodeToString(StatusCode code);

/// Arrow/RocksDB-style operation outcome. Cheap to copy when OK (no
/// allocation); carries a code plus message otherwise. Functions in this
/// library return Status (or Result<T>) instead of throwing exceptions.
///
/// The class is [[nodiscard]]: a call site that drops a returned Status does
/// not compile under ICROWD_WERROR. Propagate it (ICROWD_RETURN_NOT_OK) or
/// discard explicitly with `(void)` plus a comment saying why.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  [[nodiscard]] static Status OK() { return Status(); }
  [[nodiscard]] static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  [[nodiscard]] static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  [[nodiscard]] static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  [[nodiscard]] static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  [[nodiscard]] static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  [[nodiscard]] static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  [[nodiscard]] static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  [[nodiscard]] static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }

  [[nodiscard]] bool ok() const { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const { return code_; }
  [[nodiscard]] const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  [[nodiscard]] std::string ToString() const;

  [[nodiscard]] bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

}  // namespace icrowd

/// Propagates a non-OK Status to the caller. Usage:
///   ICROWD_RETURN_NOT_OK(DoThing());
#define ICROWD_RETURN_NOT_OK(expr)             \
  do {                                         \
    ::icrowd::Status _st = (expr);             \
    if (!_st.ok()) return _st;                 \
  } while (0)

#endif  // ICROWD_COMMON_STATUS_H_
