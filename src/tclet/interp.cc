#include "src/tclet/interp.h"

#include <cctype>
#include <stdexcept>

namespace tclet {

namespace {
constexpr int kMaxEvalDepth = 200;

bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}
}  // namespace

Interp::Interp() {
  scopes_.emplace_back();  // global scope
  RegisterBuiltins();
}

void Interp::RegisterCommand(const std::string& name, CommandFn fn) {
  commands_[name] = std::move(fn);
}

namespace {

// `global arr` must cover every element `arr(i)`: resolve a possibly
// element-qualified name against the scope's global links, returning the
// global-scope name to use (empty if unlinked).
std::string ResolveGlobalLink(const Interp::Scope& scope, const std::string& name) {
  if (const auto link = scope.globals_linked.find(name); link != scope.globals_linked.end()) {
    return link->second;
  }
  const std::size_t paren = name.find('(');
  if (paren != std::string::npos) {
    const std::string base = name.substr(0, paren);
    if (const auto link = scope.globals_linked.find(base); link != scope.globals_linked.end()) {
      return link->second + name.substr(paren);
    }
  }
  return {};
}

}  // namespace

bool Interp::LookupVar(const std::string& name, std::string& out) const {
  const Scope& scope = scopes_.back();
  if (const auto it = scope.vars.find(name); it != scope.vars.end()) {
    out = it->second;
    return true;
  }
  if (scopes_.size() > 1) {
    const std::string linked = ResolveGlobalLink(scope, name);
    if (!linked.empty()) {
      const auto& global = scopes_.front().vars;
      if (const auto it = global.find(linked); it != global.end()) {
        out = it->second;
        return true;
      }
    }
  }
  return false;
}

void Interp::StoreVar(const std::string& name, const std::string& value) {
  Scope& scope = scopes_.back();
  if (scopes_.size() > 1) {
    const std::string linked = ResolveGlobalLink(scope, name);
    if (!linked.empty()) {
      scopes_.front().vars[linked] = value;
      return;
    }
  }
  scope.vars[name] = value;
}

bool Interp::RemoveVar(const std::string& name) {
  Scope& scope = scopes_.back();
  if (scopes_.size() > 1) {
    const std::string linked = ResolveGlobalLink(scope, name);
    if (!linked.empty()) {
      return scopes_.front().vars.erase(linked) > 0;
    }
  }
  return scope.vars.erase(name) > 0;
}

void Interp::SetVar(const std::string& name, const std::string& value) { StoreVar(name, value); }
bool Interp::GetVar(const std::string& name, std::string& out) const {
  return LookupVar(name, out);
}
void Interp::SetGlobalVar(const std::string& name, const std::string& value) {
  scopes_.front().vars[name] = value;
}
bool Interp::GetGlobalVar(const std::string& name, std::string& out) const {
  const auto it = scopes_.front().vars.find(name);
  if (it == scopes_.front().vars.end()) {
    return false;
  }
  out = it->second;
  return true;
}

// --- Substitution ---

Code Interp::Substitute(std::string_view text, std::string& out) {
  out.clear();
  std::size_t i = 0;
  const std::size_t n = text.size();
  while (i < n) {
    const char c = text[i];
    if (c == '\\' && i + 1 < n) {
      const char e = text[i + 1];
      switch (e) {
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case '\n': out.push_back(' '); break;
        default: out.push_back(e); break;
      }
      i += 2;
      continue;
    }
    if (c == '$') {
      ++i;
      std::string name;
      if (i < n && text[i] == '{') {
        ++i;
        while (i < n && text[i] != '}') {
          name.push_back(text[i++]);
        }
        if (i >= n) {
          return Error("missing close-brace for variable name");
        }
        ++i;
      } else {
        while (i < n && IsNameChar(text[i])) {
          name.push_back(text[i++]);
        }
        // Array element: $name(index), index itself substituted.
        if (i < n && text[i] == '(' && !name.empty()) {
          int depth = 1;
          ++i;
          std::string raw_index;
          while (i < n && depth > 0) {
            if (text[i] == '(') {
              ++depth;
            } else if (text[i] == ')') {
              --depth;
              if (depth == 0) {
                break;
              }
            }
            raw_index.push_back(text[i++]);
          }
          if (i >= n) {
            return Error("missing close-paren for array reference");
          }
          ++i;  // consume ')'
          std::string index;
          const Code code = Substitute(raw_index, index);
          if (code != Code::kOk) {
            return code;
          }
          name += "(" + index + ")";
        }
      }
      if (name.empty()) {
        out.push_back('$');
        continue;
      }
      std::string value;
      if (!LookupVar(name, value)) {
        return Error("can't read \"" + name + "\": no such variable");
      }
      out += value;
      continue;
    }
    if (c == '[') {
      int depth = 1;
      ++i;
      const std::size_t start = i;
      while (i < n && depth > 0) {
        if (text[i] == '[') {
          ++depth;
        } else if (text[i] == ']') {
          --depth;
        }
        ++i;
      }
      if (depth != 0) {
        return Error("missing close-bracket");
      }
      const Code code = Eval(text.substr(start, i - start - 1));
      if (code != Code::kOk) {
        return code;
      }
      out += result_;
      continue;
    }
    out.push_back(c);
    ++i;
  }
  return Code::kOk;
}

// --- Command parsing ---

Code Interp::ParseCommand(std::string_view script, std::size_t& pos,
                          std::vector<std::string>& words) {
  words.clear();
  const std::size_t n = script.size();

  // Skip leading whitespace, separators, and comments.
  for (;;) {
    while (pos < n && (script[pos] == ' ' || script[pos] == '\t' || script[pos] == '\n' ||
                       script[pos] == '\r' || script[pos] == ';')) {
      ++pos;
    }
    if (pos < n && script[pos] == '#') {
      while (pos < n && script[pos] != '\n') {
        ++pos;
      }
      continue;
    }
    break;
  }

  while (pos < n && script[pos] != '\n' && script[pos] != ';') {
    const char c = script[pos];
    if (c == ' ' || c == '\t' || c == '\r') {
      ++pos;
      continue;
    }
    if (c == '{') {
      int depth = 1;
      ++pos;
      const std::size_t start = pos;
      while (pos < n && depth > 0) {
        if (script[pos] == '\\' && pos + 1 < n) {
          pos += 2;
          continue;
        }
        if (script[pos] == '{') {
          ++depth;
        } else if (script[pos] == '}') {
          --depth;
        }
        ++pos;
      }
      if (depth != 0) {
        return Error("missing close-brace");
      }
      words.emplace_back(script.substr(start, pos - start - 1));
      continue;
    }
    if (c == '"') {
      ++pos;
      const std::size_t start = pos;
      int bracket_depth = 0;
      while (pos < n && (script[pos] != '"' || bracket_depth > 0)) {
        if (script[pos] == '\\' && pos + 1 < n) {
          pos += 2;
          continue;
        }
        if (script[pos] == '[') {
          ++bracket_depth;
        } else if (script[pos] == ']' && bracket_depth > 0) {
          --bracket_depth;
        }
        ++pos;
      }
      if (pos >= n) {
        return Error("missing close-quote");
      }
      std::string word;
      const Code code = Substitute(script.substr(start, pos - start), word);
      if (code != Code::kOk) {
        return code;
      }
      ++pos;  // consume closing quote
      words.push_back(std::move(word));
      continue;
    }
    // Bare word: runs to whitespace or separator; brackets may span spaces.
    {
      const std::size_t start = pos;
      int bracket_depth = 0;
      while (pos < n) {
        const char w = script[pos];
        if (w == '\\' && pos + 1 < n) {
          pos += 2;
          continue;
        }
        if (w == '[') {
          ++bracket_depth;
        } else if (w == ']' && bracket_depth > 0) {
          --bracket_depth;
        } else if (bracket_depth == 0 &&
                   (w == ' ' || w == '\t' || w == '\n' || w == '\r' || w == ';')) {
          break;
        }
        ++pos;
      }
      std::string word;
      const Code code = Substitute(script.substr(start, pos - start), word);
      if (code != Code::kOk) {
        return code;
      }
      words.push_back(std::move(word));
    }
  }
  return Code::kOk;
}

Code Interp::Eval(std::string_view script) {
  if (++eval_depth_ > kMaxEvalDepth) {
    --eval_depth_;
    return Error("too many nested evaluations");
  }

  Code code = Code::kOk;
  std::size_t pos = 0;
  std::vector<std::string> words;
  result_.clear();

  while (pos < script.size()) {
    code = ParseCommand(script, pos, words);
    if (code != Code::kOk) {
      break;
    }
    if (words.empty()) {
      continue;
    }
    code = RunCommand(words);
    if (code != Code::kOk) {
      break;
    }
  }
  --eval_depth_;
  return code;
}

std::string Interp::EvalOrThrow(std::string_view script) {
  const Code code = Eval(script);
  if (code == Code::kError) {
    throw std::runtime_error("tclet: " + result_);
  }
  if (code == Code::kBreak || code == Code::kContinue) {
    throw std::runtime_error("tclet: break/continue outside loop");
  }
  return result_;
}

Code Interp::RunCommand(const std::vector<std::string>& words) {
  ++commands_executed_;
  if (fuel_ > 0) {
    --fuel_;
  } else if (fuel_ == 0) {
    return Error("command budget exhausted: script preempted");
  }

  const std::string& name = words[0];
  if (const auto it = commands_.find(name); it != commands_.end()) {
    return it->second(*this, words);
  }
  if (const auto it = procs_.find(name); it != procs_.end()) {
    const Proc& proc = it->second;
    if (words.size() - 1 != proc.params.size()) {
      return Error("wrong # args for proc \"" + name + "\"");
    }
    scopes_.emplace_back();
    for (std::size_t p = 0; p < proc.params.size(); ++p) {
      scopes_.back().vars[proc.params[p]] = words[p + 1];
    }
    Code code = Eval(proc.body);
    scopes_.pop_back();
    if (code == Code::kReturn) {
      code = Code::kOk;
    } else if (code == Code::kBreak || code == Code::kContinue) {
      return Error("break/continue outside loop in proc \"" + name + "\"");
    }
    return code;
  }
  return Error("invalid command name \"" + name + "\"");
}

// --- Builtins ---

namespace {

Code WrongArgs(Interp& interp, const std::string& usage) {
  return interp.Error("wrong # args: should be \"" + usage + "\"");
}

Code CmdSet(Interp& interp, const std::vector<std::string>& argv) {
  if (argv.size() == 2) {
    std::string value;
    if (!interp.LookupVar(argv[1], value)) {
      return interp.Error("can't read \"" + argv[1] + "\": no such variable");
    }
    interp.set_result(value);
    return Code::kOk;
  }
  if (argv.size() == 3) {
    interp.StoreVar(argv[1], argv[2]);
    interp.set_result(argv[2]);
    return Code::kOk;
  }
  return WrongArgs(interp, "set varName ?newValue?");
}

Code CmdUnset(Interp& interp, const std::vector<std::string>& argv) {
  if (argv.size() != 2) {
    return WrongArgs(interp, "unset varName");
  }
  if (!interp.RemoveVar(argv[1])) {
    return interp.Error("can't unset \"" + argv[1] + "\": no such variable");
  }
  interp.set_result("");
  return Code::kOk;
}

Code CmdIncr(Interp& interp, const std::vector<std::string>& argv) {
  if (argv.size() != 2 && argv.size() != 3) {
    return WrongArgs(interp, "incr varName ?increment?");
  }
  std::string current;
  if (!interp.LookupVar(argv[1], current)) {
    return interp.Error("can't read \"" + argv[1] + "\": no such variable");
  }
  std::int64_t value;
  if (!ParseInt(current, value)) {
    return interp.Error("expected integer but got \"" + current + "\"");
  }
  std::int64_t delta = 1;
  if (argv.size() == 3 && !ParseInt(argv[2], delta)) {
    return interp.Error("expected integer but got \"" + argv[2] + "\"");
  }
  const std::string updated = IntToString(value + delta);
  interp.StoreVar(argv[1], updated);
  interp.set_result(updated);
  return Code::kOk;
}

Code CmdAppend(Interp& interp, const std::vector<std::string>& argv) {
  if (argv.size() < 2) {
    return WrongArgs(interp, "append varName ?value ...?");
  }
  std::string value;
  interp.LookupVar(argv[1], value);  // missing variable starts empty
  for (std::size_t i = 2; i < argv.size(); ++i) {
    value += argv[i];
  }
  interp.StoreVar(argv[1], value);
  interp.set_result(value);
  return Code::kOk;
}

Code CmdExpr(Interp& interp, const std::vector<std::string>& argv) {
  if (argv.size() < 2) {
    return WrongArgs(interp, "expr arg ?arg ...?");
  }
  std::string text;
  for (std::size_t i = 1; i < argv.size(); ++i) {
    if (i > 1) {
      text.push_back(' ');
    }
    text += argv[i];
  }
  std::int64_t value;
  const Code code = interp.EvalExpr(text, value);
  if (code != Code::kOk) {
    return code;
  }
  interp.set_result(IntToString(value));
  return Code::kOk;
}

Code CmdIf(Interp& interp, const std::vector<std::string>& argv) {
  std::size_t i = 1;
  while (i < argv.size()) {
    if (i + 1 >= argv.size()) {
      return WrongArgs(interp, "if cond body ?elseif cond body ...? ?else body?");
    }
    std::int64_t cond;
    const Code code = interp.EvalExpr(argv[i], cond);
    if (code != Code::kOk) {
      return code;
    }
    if (cond != 0) {
      return interp.Eval(argv[i + 1]);
    }
    i += 2;
    if (i >= argv.size()) {
      interp.set_result("");
      return Code::kOk;
    }
    if (argv[i] == "elseif") {
      ++i;
      continue;
    }
    if (argv[i] == "else") {
      if (i + 1 >= argv.size()) {
        return WrongArgs(interp, "if cond body else body");
      }
      return interp.Eval(argv[i + 1]);
    }
    return interp.Error("expected \"elseif\" or \"else\" but got \"" + argv[i] + "\"");
  }
  interp.set_result("");
  return Code::kOk;
}

Code CmdWhile(Interp& interp, const std::vector<std::string>& argv) {
  if (argv.size() != 3) {
    return WrongArgs(interp, "while test body");
  }
  for (;;) {
    std::int64_t cond;
    Code code = interp.EvalExpr(argv[1], cond);
    if (code != Code::kOk) {
      return code;
    }
    if (cond == 0) {
      break;
    }
    code = interp.Eval(argv[2]);
    if (code == Code::kBreak) {
      break;
    }
    if (code != Code::kOk && code != Code::kContinue) {
      return code;
    }
  }
  interp.set_result("");
  return Code::kOk;
}

Code CmdFor(Interp& interp, const std::vector<std::string>& argv) {
  if (argv.size() != 5) {
    return WrongArgs(interp, "for start test next body");
  }
  Code code = interp.Eval(argv[1]);
  if (code != Code::kOk) {
    return code;
  }
  for (;;) {
    std::int64_t cond;
    code = interp.EvalExpr(argv[2], cond);
    if (code != Code::kOk) {
      return code;
    }
    if (cond == 0) {
      break;
    }
    code = interp.Eval(argv[4]);
    if (code == Code::kBreak) {
      break;
    }
    if (code != Code::kOk && code != Code::kContinue) {
      return code;
    }
    code = interp.Eval(argv[3]);
    if (code != Code::kOk) {
      return code;
    }
  }
  interp.set_result("");
  return Code::kOk;
}

Code CmdForeach(Interp& interp, const std::vector<std::string>& argv) {
  if (argv.size() != 4) {
    return WrongArgs(interp, "foreach varName list body");
  }
  std::vector<std::string> elements;
  if (!SplitList(argv[2], elements)) {
    return interp.Error("unmatched brace in list");
  }
  for (const auto& element : elements) {
    interp.StoreVar(argv[1], element);
    const Code code = interp.Eval(argv[3]);
    if (code == Code::kBreak) {
      break;
    }
    if (code != Code::kOk && code != Code::kContinue) {
      return code;
    }
  }
  interp.set_result("");
  return Code::kOk;
}

Code CmdProc(Interp& interp, const std::vector<std::string>& argv) {
  if (argv.size() != 4) {
    return WrongArgs(interp, "proc name args body");
  }
  Interp::Proc proc;
  if (!SplitList(argv[2], proc.params)) {
    return interp.Error("bad parameter list");
  }
  proc.body = argv[3];
  interp.procs()[argv[1]] = std::move(proc);
  interp.set_result("");
  return Code::kOk;
}

Code CmdReturn(Interp& interp, const std::vector<std::string>& argv) {
  if (argv.size() > 2) {
    return WrongArgs(interp, "return ?value?");
  }
  interp.set_result(argv.size() == 2 ? argv[1] : "");
  return Code::kReturn;
}

Code CmdBreak(Interp& interp, const std::vector<std::string>&) {
  interp.set_result("");
  return Code::kBreak;
}

Code CmdContinue(Interp& interp, const std::vector<std::string>&) {
  interp.set_result("");
  return Code::kContinue;
}

Code CmdPuts(Interp& interp, const std::vector<std::string>& argv) {
  if (argv.size() != 2) {
    return WrongArgs(interp, "puts string");
  }
  interp.AppendOutput(argv[1]);
  interp.set_result("");
  return Code::kOk;
}

Code CmdGlobal(Interp& interp, const std::vector<std::string>& argv) {
  if (argv.size() < 2) {
    return WrongArgs(interp, "global varName ?varName ...?");
  }
  for (std::size_t i = 1; i < argv.size(); ++i) {
    interp.scopes().back().globals_linked[argv[i]] = argv[i];
  }
  interp.set_result("");
  return Code::kOk;
}

Code CmdEvalCmd(Interp& interp, const std::vector<std::string>& argv) {
  std::string script;
  for (std::size_t i = 1; i < argv.size(); ++i) {
    if (i > 1) {
      script.push_back(' ');
    }
    script += argv[i];
  }
  return interp.Eval(script);
}

Code CmdCatch(Interp& interp, const std::vector<std::string>& argv) {
  if (argv.size() != 2 && argv.size() != 3) {
    return WrongArgs(interp, "catch script ?resultVarName?");
  }
  const Code code = interp.Eval(argv[1]);
  if (argv.size() == 3) {
    interp.StoreVar(argv[2], interp.result());
  }
  interp.set_result(IntToString(static_cast<std::int64_t>(code)));
  return Code::kOk;
}

Code CmdInfo(Interp& interp, const std::vector<std::string>& argv) {
  if (argv.size() == 3 && argv[1] == "exists") {
    std::string ignored;
    interp.set_result(interp.LookupVar(argv[2], ignored) ? "1" : "0");
    return Code::kOk;
  }
  return interp.Error("info: only \"info exists varName\" is supported");
}

Code CmdList(Interp& interp, const std::vector<std::string>& argv) {
  std::vector<std::string> elements(argv.begin() + 1, argv.end());
  interp.set_result(JoinList(elements));
  return Code::kOk;
}

Code CmdLindex(Interp& interp, const std::vector<std::string>& argv) {
  if (argv.size() != 3) {
    return WrongArgs(interp, "lindex list index");
  }
  std::vector<std::string> elements;
  if (!SplitList(argv[1], elements)) {
    return interp.Error("bad list");
  }
  std::int64_t index;
  if (argv[2] == "end") {
    index = static_cast<std::int64_t>(elements.size()) - 1;
  } else if (!ParseInt(argv[2], index)) {
    return interp.Error("expected integer but got \"" + argv[2] + "\"");
  }
  if (index < 0 || static_cast<std::size_t>(index) >= elements.size()) {
    interp.set_result("");
  } else {
    interp.set_result(elements[static_cast<std::size_t>(index)]);
  }
  return Code::kOk;
}

Code CmdLlength(Interp& interp, const std::vector<std::string>& argv) {
  if (argv.size() != 2) {
    return WrongArgs(interp, "llength list");
  }
  std::vector<std::string> elements;
  if (!SplitList(argv[1], elements)) {
    return interp.Error("bad list");
  }
  interp.set_result(IntToString(static_cast<std::int64_t>(elements.size())));
  return Code::kOk;
}

Code CmdLappend(Interp& interp, const std::vector<std::string>& argv) {
  if (argv.size() < 2) {
    return WrongArgs(interp, "lappend varName ?value ...?");
  }
  std::string list;
  interp.LookupVar(argv[1], list);
  for (std::size_t i = 2; i < argv.size(); ++i) {
    if (!list.empty()) {
      list.push_back(' ');
    }
    list += QuoteElement(argv[i]);
  }
  interp.StoreVar(argv[1], list);
  interp.set_result(list);
  return Code::kOk;
}

Code CmdLrange(Interp& interp, const std::vector<std::string>& argv) {
  if (argv.size() != 4) {
    return WrongArgs(interp, "lrange list first last");
  }
  std::vector<std::string> elements;
  if (!SplitList(argv[1], elements)) {
    return interp.Error("bad list");
  }
  auto parse_bound = [&](const std::string& text, std::int64_t& out) {
    if (text == "end") {
      out = static_cast<std::int64_t>(elements.size()) - 1;
      return true;
    }
    return ParseInt(text, out);
  };
  std::int64_t first;
  std::int64_t last;
  if (!parse_bound(argv[2], first) || !parse_bound(argv[3], last)) {
    return interp.Error("bad index");
  }
  if (first < 0) {
    first = 0;
  }
  if (last >= static_cast<std::int64_t>(elements.size())) {
    last = static_cast<std::int64_t>(elements.size()) - 1;
  }
  std::vector<std::string> slice;
  for (std::int64_t i = first; i <= last; ++i) {
    slice.push_back(elements[static_cast<std::size_t>(i)]);
  }
  interp.set_result(JoinList(slice));
  return Code::kOk;
}

Code CmdString(Interp& interp, const std::vector<std::string>& argv) {
  if (argv.size() < 3) {
    return WrongArgs(interp, "string option arg ?arg?");
  }
  const std::string& option = argv[1];
  if (option == "length") {
    interp.set_result(IntToString(static_cast<std::int64_t>(argv[2].size())));
    return Code::kOk;
  }
  if (option == "index" && argv.size() == 4) {
    std::int64_t index;
    if (!ParseInt(argv[3], index)) {
      return interp.Error("bad index");
    }
    if (index < 0 || static_cast<std::size_t>(index) >= argv[2].size()) {
      interp.set_result("");
    } else {
      interp.set_result(std::string(1, argv[2][static_cast<std::size_t>(index)]));
    }
    return Code::kOk;
  }
  if (option == "range" && argv.size() == 5) {
    std::int64_t first;
    std::int64_t last;
    if (argv[4] == "end") {
      last = static_cast<std::int64_t>(argv[2].size()) - 1;
    } else if (!ParseInt(argv[4], last)) {
      return interp.Error("bad index");
    }
    if (!ParseInt(argv[3], first)) {
      return interp.Error("bad index");
    }
    if (first < 0) {
      first = 0;
    }
    if (last >= static_cast<std::int64_t>(argv[2].size())) {
      last = static_cast<std::int64_t>(argv[2].size()) - 1;
    }
    interp.set_result(first > last
                          ? ""
                          : argv[2].substr(static_cast<std::size_t>(first),
                                           static_cast<std::size_t>(last - first + 1)));
    return Code::kOk;
  }
  if (option == "compare" && argv.size() == 4) {
    const int cmp = argv[2].compare(argv[3]);
    interp.set_result(IntToString(cmp < 0 ? -1 : cmp > 0 ? 1 : 0));
    return Code::kOk;
  }
  return interp.Error("string: unsupported option \"" + option + "\"");
}

}  // namespace

void Interp::RegisterBuiltins() {
  RegisterCommand("set", CmdSet);
  RegisterCommand("unset", CmdUnset);
  RegisterCommand("incr", CmdIncr);
  RegisterCommand("append", CmdAppend);
  RegisterCommand("expr", CmdExpr);
  RegisterCommand("if", CmdIf);
  RegisterCommand("while", CmdWhile);
  RegisterCommand("for", CmdFor);
  RegisterCommand("foreach", CmdForeach);
  RegisterCommand("proc", CmdProc);
  RegisterCommand("return", CmdReturn);
  RegisterCommand("break", CmdBreak);
  RegisterCommand("continue", CmdContinue);
  RegisterCommand("puts", CmdPuts);
  RegisterCommand("global", CmdGlobal);
  RegisterCommand("eval", CmdEvalCmd);
  RegisterCommand("catch", CmdCatch);
  RegisterCommand("info", CmdInfo);
  RegisterCommand("list", CmdList);
  RegisterCommand("lindex", CmdLindex);
  RegisterCommand("llength", CmdLlength);
  RegisterCommand("lappend", CmdLappend);
  RegisterCommand("lrange", CmdLrange);
  RegisterCommand("string", CmdString);
}

}  // namespace tclet
