// Minnow diagnostics: compile-time and run-time error types.

#ifndef GRAFTLAB_SRC_MINNOW_DIAG_H_
#define GRAFTLAB_SRC_MINNOW_DIAG_H_

#include <stdexcept>
#include <string>

namespace minnow {

// Lexer/parser/type-checker failure; carries source position.
class CompileError : public std::runtime_error {
 public:
  CompileError(const std::string& message, int line, int column)
      : std::runtime_error(message + " (line " + std::to_string(line) + ", col " +
                           std::to_string(column) + ")"),
        line_(line),
        column_(column) {}

  int line() const { return line_; }
  int column() const { return column_; }

 private:
  int line_;
  int column_;
};

// Bytecode rejected by the load-time verifier.
class VerifyError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// VM trap: null dereference, bounds, division by zero, stack overflow,
// fuel exhaustion. The kernel treats these like any other extension fault.
class Trap : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// The fuel budget ran out: a preemption, not a fault of the graft's code.
class FuelExhausted : public Trap {
 public:
  FuelExhausted() : Trap("fuel exhausted: graft preempted") {}
};

}  // namespace minnow

#endif  // GRAFTLAB_SRC_MINNOW_DIAG_H_
