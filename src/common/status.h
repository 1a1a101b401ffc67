// Status / Result error-handling primitives (RocksDB/Arrow idiom: no
// exceptions on library paths; every fallible call returns a Status or a
// Result<T>).
#pragma once

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace paxoscp {

/// Outcome of a fallible operation. Cheap to copy when OK (no allocation).
class Status {
 public:
  enum class Code {
    kOk = 0,
    kNotFound,
    kConflict,            // kvstore version conflict / checkAndWrite failure
    kTimedOut,            // message or operation deadline expired
    kUnavailable,         // endpoint down / no quorum reachable
    kAborted,             // transaction aborted by concurrency control
    kInvalidArgument,
    kFailedPrecondition,  // protocol state does not permit the operation
    kCorruption,          // decode failure / invariant violation in data
    kInternal,
  };

  Status() = default;  // OK

  static Status OK() { return Status(); }
  static Status NotFound(std::string msg = "") {
    return Status(Code::kNotFound, std::move(msg));
  }
  static Status Conflict(std::string msg = "") {
    return Status(Code::kConflict, std::move(msg));
  }
  static Status TimedOut(std::string msg = "") {
    return Status(Code::kTimedOut, std::move(msg));
  }
  static Status Unavailable(std::string msg = "") {
    return Status(Code::kUnavailable, std::move(msg));
  }
  static Status Aborted(std::string msg = "") {
    return Status(Code::kAborted, std::move(msg));
  }
  static Status InvalidArgument(std::string msg = "") {
    return Status(Code::kInvalidArgument, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg = "") {
    return Status(Code::kFailedPrecondition, std::move(msg));
  }
  static Status Corruption(std::string msg = "") {
    return Status(Code::kCorruption, std::move(msg));
  }
  static Status Internal(std::string msg = "") {
    return Status(Code::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == Code::kOk; }
  bool IsNotFound() const { return code_ == Code::kNotFound; }
  bool IsConflict() const { return code_ == Code::kConflict; }
  bool IsTimedOut() const { return code_ == Code::kTimedOut; }
  bool IsUnavailable() const { return code_ == Code::kUnavailable; }
  bool IsAborted() const { return code_ == Code::kAborted; }

  Code code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const { return code_ == other.code_; }

 private:
  Status(Code code, std::string msg) : code_(code), message_(std::move(msg)) {}

  Code code_ = Code::kOk;
  std::string message_;
};

/// Either a value of type T or a non-OK Status explaining its absence.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}              // NOLINT
  Result(Status status) : status_(std::move(status)) {       // NOLINT
    assert(!status_.ok() && "Result(Status) requires a non-OK status");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the contained value or `fallback` when not OK.
  T value_or(T fallback) const& { return ok() ? *value_ : std::move(fallback); }

 private:
  Status status_;
  std::optional<T> value_;
};

/// Evaluates `expr` (a Status expression) and early-returns it when not OK.
#define PAXOSCP_RETURN_IF_ERROR(expr)            \
  do {                                           \
    ::paxoscp::Status _st = (expr);              \
    if (!_st.ok()) return _st;                   \
  } while (0)

}  // namespace paxoscp
