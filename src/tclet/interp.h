// Tclet — a direct source interpreter for a Tcl subset.
//
// This is the paper's "Tcl" extension technology: grafts are Tcl scripts
// whose source text is re-parsed on every execution. Tclet implements the
// classic Tcl evaluation model: a script is a sequence of commands; each
// command is split into words with $variable, [command] and backslash
// substitution ({braces} suppress substitution, "quotes" group with
// substitution); every value is a string. Control structures (if, while,
// for, foreach, proc...) are ordinary commands that re-evaluate their body
// strings, and `expr` re-parses its expression string on every call — the
// structural costs behind the paper's four-orders-of-magnitude Tcl numbers.
//
// Safety model (§4.3): the interpreter only exposes the commands registered
// in it, and a command budget ("fuel") preempts runaway scripts. Errors are
// contained: Eval returns Code::kError with a message, never corrupts the
// host.

#ifndef GRAFTLAB_SRC_TCLET_INTERP_H_
#define GRAFTLAB_SRC_TCLET_INTERP_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/tclet/value.h"

namespace tclet {

// Tcl result codes.
enum class Code : std::uint8_t { kOk, kError, kReturn, kBreak, kContinue };

class Interp;

// A command implemented in C++ (both builtins and host/kernel commands).
// argv[0] is the command name. The result string goes in interp.result().
using CommandFn = std::function<Code(Interp&, const std::vector<std::string>& argv)>;

class Interp {
 public:
  Interp();

  // Evaluates a script (sequence of commands). The final command's result is
  // left in result().
  Code Eval(std::string_view script);

  // Evaluates and throws std::runtime_error on any non-kOk outcome; returns
  // the result string. Convenience for embedding.
  std::string EvalOrThrow(std::string_view script);

  const std::string& result() const { return result_; }
  void set_result(std::string value) { result_ = std::move(value); }

  // Registers a host command (kernel upcall surface for grafts).
  void RegisterCommand(const std::string& name, CommandFn fn);

  // Variable access at the current scope (host side).
  void SetVar(const std::string& name, const std::string& value);
  bool GetVar(const std::string& name, std::string& out) const;
  void SetGlobalVar(const std::string& name, const std::string& value);
  bool GetGlobalVar(const std::string& name, std::string& out) const;

  // Command budget: each command evaluation costs one unit; exhausting the
  // budget aborts the script with an error. -1 = unlimited. Exhaustion is
  // sticky: fuel stays at 0 and every later command fails the same way
  // (`catch` cannot buy the script more time) until SetFuel refuels.
  void SetFuel(std::int64_t fuel) { fuel_ = fuel; }
  std::int64_t fuel() const { return fuel_; }

  // Output accumulated by `puts`.
  const std::string& output() const { return output_; }
  void ClearOutput() { output_.clear(); }

  std::uint64_t commands_executed() const { return commands_executed_; }

  // --- used by command implementations ---
  Code Error(const std::string& message) {
    result_ = message;
    return Code::kError;
  }

  // Evaluates `text` as an expression (the `expr` engine, also used by the
  // condition arguments of if/while/for). Performs $ and [] substitution on
  // the raw text, then parses.
  Code EvalExpr(std::string_view text, std::int64_t& out);

  struct Scope {
    std::unordered_map<std::string, std::string> vars;
    std::unordered_map<std::string, std::string> globals_linked;  // name -> global name
  };

  std::vector<Scope>& scopes() { return scopes_; }
  std::unordered_map<std::string, CommandFn>& commands() { return commands_; }

  struct Proc {
    std::vector<std::string> params;
    std::string body;
  };
  std::unordered_map<std::string, Proc>& procs() { return procs_; }

  void AppendOutput(const std::string& text) {
    output_ += text;
    output_ += '\n';
  }

  // Variable lookup honoring `global` links in proc scopes.
  bool LookupVar(const std::string& name, std::string& out) const;
  void StoreVar(const std::string& name, const std::string& value);
  bool RemoveVar(const std::string& name);

 private:
  friend class Parser;

  // Substitutes $vars, [commands], and backslashes in `text`.
  Code Substitute(std::string_view text, std::string& out);

  // Splits one command line into substituted words. Returns kOk with empty
  // words for blank/comment lines.
  Code ParseCommand(std::string_view script, std::size_t& pos, std::vector<std::string>& words);

  Code RunCommand(const std::vector<std::string>& words);

  void RegisterBuiltins();

  std::vector<Scope> scopes_;
  std::unordered_map<std::string, CommandFn> commands_;
  std::unordered_map<std::string, Proc> procs_;
  std::string result_;
  std::string output_;
  std::int64_t fuel_ = -1;
  std::uint64_t commands_executed_ = 0;
  int eval_depth_ = 0;
};

}  // namespace tclet

#endif  // GRAFTLAB_SRC_TCLET_INTERP_H_
