// Minnow tokens.
//
// Minnow is GraftLab's downloadable extension language: a small, statically
// typed, C-flavoured language compiled to verified bytecode for an in-kernel
// VM — the role Java plays in the paper. The toolchain is deliberately
// complete (lexer -> parser -> type checker -> bytecode compiler -> load-time
// verifier -> interpreter / JIT) because the paper's interpretation-cost
// numbers only mean something if the interpreter is real.

#ifndef GRAFTLAB_SRC_MINNOW_TOKEN_H_
#define GRAFTLAB_SRC_MINNOW_TOKEN_H_

#include <cstdint>
#include <string>

namespace minnow {

enum class Tok : std::uint8_t {
  kEof,
  kIdent,
  kIntLit,

  // keywords
  kFn,
  kVar,
  kStruct,
  kIf,
  kElse,
  kWhile,
  kFor,
  kReturn,
  kBreak,
  kContinue,
  kTrue,
  kFalse,
  kNull,
  kNew,

  // punctuation
  kLParen,
  kRParen,
  kLBrace,
  kRBrace,
  kLBracket,
  kRBracket,
  kComma,
  kSemi,
  kColon,
  kArrow,  // ->
  kDot,

  // operators
  kAssign,  // =
  kPlus,
  kMinus,
  kStar,
  kSlash,
  kPercent,
  kAmp,
  kPipe,
  kCaret,
  kTilde,
  kShl,
  kShr,
  kLt,
  kLe,
  kGt,
  kGe,
  kEq,
  kNe,
  kAndAnd,
  kOrOr,
  kBang,
};

struct Token {
  Tok kind = Tok::kEof;
  std::string text;        // identifier spelling
  std::uint64_t int_value = 0;
  int line = 0;
  int column = 0;
};

const char* TokName(Tok kind);

}  // namespace minnow

#endif  // GRAFTLAB_SRC_MINNOW_TOKEN_H_
