// Lightweight contract checks in the spirit of the C++ Core Guidelines'
// Expects/Ensures (I.6, I.8). Violations throw so tests can assert on them;
// they are programming errors, not recoverable conditions.
#pragma once

#include <stdexcept>
#include <string>

namespace canids {

/// Thrown when a precondition (Expects) is violated.
class ContractViolation : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

namespace detail {
[[noreturn]] inline void contract_fail(const char* kind, const char* expr,
                                       const char* file, int line) {
  throw ContractViolation(std::string(kind) + " failed: `" + expr + "` at " +
                          file + ":" + std::to_string(line));
}

[[noreturn]] inline void contract_fail(const char* kind, const char* expr,
                                       const char* file, int line,
                                       const std::string& message) {
  throw ContractViolation(std::string(kind) + " failed: `" + expr + "` at " +
                          file + ":" + std::to_string(line) + ": " + message);
}
}  // namespace detail

}  // namespace canids

#define CANIDS_EXPECTS(cond)                                              \
  do {                                                                    \
    if (!(cond))                                                          \
      ::canids::detail::contract_fail("precondition", #cond, __FILE__,    \
                                      __LINE__);                          \
  } while (false)

/// Like CANIDS_EXPECTS but with a caller-supplied explanation appended to
/// the violation message — use where the bare expression would not tell
/// the user what to fix (e.g. degenerate training input).
#define CANIDS_EXPECTS_MSG(cond, msg)                                     \
  do {                                                                    \
    if (!(cond))                                                          \
      ::canids::detail::contract_fail("precondition", #cond, __FILE__,    \
                                      __LINE__, (msg));                   \
  } while (false)
