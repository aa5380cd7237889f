// Tclet interpreter tests: substitution, control flow, procs, lists,
// arrays, error containment, and the fuel guard.

#include <gtest/gtest.h>

#include <string>

#include "src/tclet/interp.h"
#include "src/tclet/value.h"

namespace {

using tclet::Code;
using tclet::Interp;

std::string Tcl(const std::string& script) {
  Interp interp;
  return interp.EvalOrThrow(script);
}

TEST(Value, ParseInt) {
  std::int64_t v = 0;
  EXPECT_TRUE(tclet::ParseInt("42", v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(tclet::ParseInt("-17", v));
  EXPECT_EQ(v, -17);
  EXPECT_TRUE(tclet::ParseInt("0xff", v));
  EXPECT_EQ(v, 255);
  EXPECT_TRUE(tclet::ParseInt("  7  ", v));
  EXPECT_EQ(v, 7);
  EXPECT_FALSE(tclet::ParseInt("", v));
  EXPECT_FALSE(tclet::ParseInt("12a", v));
  EXPECT_FALSE(tclet::ParseInt("a12", v));
}

TEST(Value, ListRoundTrip) {
  std::vector<std::string> elements{"a", "b c", "", "{x}", "d$e"};
  const std::string list = tclet::JoinList(elements);
  std::vector<std::string> parsed;
  ASSERT_TRUE(tclet::SplitList(list, parsed));
  EXPECT_EQ(parsed, elements);
}

TEST(Value, SplitHandlesNestedBraces) {
  std::vector<std::string> parsed;
  ASSERT_TRUE(tclet::SplitList("a {b {c d}} e", parsed));
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed[1], "b {c d}");
  EXPECT_FALSE(tclet::SplitList("{unbalanced", parsed));
}

TEST(Interp, SetAndSubstitute) {
  EXPECT_EQ(Tcl("set x 42"), "42");
  EXPECT_EQ(Tcl("set x 42; set y $x; set y"), "42");
  EXPECT_EQ(Tcl("set x 5; set y x$x$x"), "x55");
  EXPECT_EQ(Tcl("set x 5; set y ${x}9"), "59");
}

TEST(Interp, BracesSuppressSubstitution) {
  EXPECT_EQ(Tcl("set x {$notavar [nocmd]}"), "$notavar [nocmd]");
}

TEST(Interp, QuotesGroupWithSubstitution) {
  EXPECT_EQ(Tcl("set a 1; set b 2; set c \"$a and $b\""), "1 and 2");
}

TEST(Interp, CommandSubstitution) {
  EXPECT_EQ(Tcl("set x [expr 2 + 3]"), "5");
  EXPECT_EQ(Tcl("set x [expr [expr 1 + 1] * 3]"), "6");
}

TEST(Interp, BackslashEscapes) {
  EXPECT_EQ(Tcl(R"(set x a\$b)"), "a$b");
  EXPECT_EQ(Tcl(R"(set x \[ok\])"), "[ok]");
}

TEST(Interp, CommentsAreSkipped) {
  EXPECT_EQ(Tcl("# a comment\nset x 3\n# another\nset x"), "3");
}

TEST(Expr, ArithmeticAndPrecedence) {
  EXPECT_EQ(Tcl("expr {2 + 3 * 4}"), "14");
  EXPECT_EQ(Tcl("expr {(2 + 3) * 4}"), "20");
  EXPECT_EQ(Tcl("expr {17 % 5}"), "2");
  EXPECT_EQ(Tcl("expr {1 << 10}"), "1024");
  EXPECT_EQ(Tcl("expr {0xff & 0x0f}"), "15");
  EXPECT_EQ(Tcl("expr {0xf0 | 0x0f}"), "255");
  EXPECT_EQ(Tcl("expr {5 ^ 3}"), "6");
  EXPECT_EQ(Tcl("expr {~0}"), "-1");
  EXPECT_EQ(Tcl("expr {-3 + 1}"), "-2");
  EXPECT_EQ(Tcl("expr {!0}"), "1");
}

TEST(Expr, ComparisonsAndLogic) {
  EXPECT_EQ(Tcl("expr {1 < 2}"), "1");
  EXPECT_EQ(Tcl("expr {2 <= 1}"), "0");
  EXPECT_EQ(Tcl("expr {3 == 3 && 4 != 5}"), "1");
  EXPECT_EQ(Tcl("expr {0 || 1}"), "1");
  EXPECT_EQ(Tcl("expr {1 > 2 || 2 > 1}"), "1");
}

TEST(Expr, VariablesInsideBracedExpr) {
  EXPECT_EQ(Tcl("set i 10; expr {$i * $i + 1}"), "101");
  EXPECT_EQ(Tcl("set i 3; expr {$i < 5}"), "1");
}

TEST(Expr, DivideByZeroIsError) {
  Interp interp;
  EXPECT_EQ(interp.Eval("expr {1 / 0}"), Code::kError);
  EXPECT_EQ(interp.Eval("expr {1 % 0}"), Code::kError);
}

TEST(Expr, SyntaxErrors) {
  Interp interp;
  EXPECT_EQ(interp.Eval("expr {1 +}"), Code::kError);
  EXPECT_EQ(interp.Eval("expr {(1}"), Code::kError);
  EXPECT_EQ(interp.Eval("expr {abc}"), Code::kError);
}

TEST(Interp, IfElseifElse) {
  const char* script = R"(
    set x %d
    if {$x > 10} { set r big } elseif {$x > 5} { set r mid } else { set r small }
    set r
  )";
  char buf[256];
  std::snprintf(buf, sizeof(buf), script, 20);
  EXPECT_EQ(Tcl(buf), "big");
  std::snprintf(buf, sizeof(buf), script, 7);
  EXPECT_EQ(Tcl(buf), "mid");
  std::snprintf(buf, sizeof(buf), script, 1);
  EXPECT_EQ(Tcl(buf), "small");
}

TEST(Interp, WhileLoop) {
  EXPECT_EQ(Tcl(R"(
    set i 0
    set total 0
    while {$i < 10} {
      set total [expr {$total + $i}]
      incr i
    }
    set total
  )"),
            "45");
}

TEST(Interp, ForLoopWithBreakContinue) {
  EXPECT_EQ(Tcl(R"(
    set total 0
    for {set i 0} {$i < 100} {incr i} {
      if {$i % 2 == 0} { continue }
      if {$i > 7} { break }
      set total [expr {$total + $i}]
    }
    set total
  )"),
            "16");  // 1+3+5+7
}

TEST(Interp, ForeachOverList) {
  EXPECT_EQ(Tcl(R"(
    set total 0
    foreach x {1 2 3 4 5} { set total [expr {$total + $x}] }
    set total
  )"),
            "15");
}

TEST(Interp, ProcsAndRecursion) {
  EXPECT_EQ(Tcl(R"(
    proc fib {n} {
      if {$n < 2} { return $n }
      return [expr {[fib [expr {$n - 1}]] + [fib [expr {$n - 2}]]}]
    }
    fib 15
  )"),
            "610");
}

TEST(Interp, ProcLocalScopeAndGlobal) {
  EXPECT_EQ(Tcl(R"(
    set g 100
    proc f {x} {
      global g
      set local 5
      set g [expr {$g + $x + $local}]
      return $g
    }
    f 1
    set g
  )"),
            "106");

  // Locals do not leak.
  Interp interp;
  EXPECT_EQ(interp.Eval("proc f {} { set hidden 3; return ok }\nf\nset hidden"), Code::kError);
}

TEST(Interp, WrongArityForProcIsError) {
  Interp interp;
  EXPECT_EQ(interp.Eval("proc f {a b} { return $a }\nf 1"), Code::kError);
}

TEST(Interp, ArraysViaParenVariables) {
  EXPECT_EQ(Tcl(R"(
    set a(0) x
    set a(1) y
    set i 1
    set a($i)
  )"),
            "y");
  EXPECT_EQ(Tcl("set h(k1) 10; set h(k2) 20; expr {$h(k1) + $h(k2)}"), "30");
}

TEST(Interp, ListCommands) {
  EXPECT_EQ(Tcl("llength {a b c}"), "3");
  EXPECT_EQ(Tcl("lindex {a b c} 1"), "b");
  EXPECT_EQ(Tcl("lindex {a b c} end"), "c");
  EXPECT_EQ(Tcl("lindex {a b c} 9"), "");
  EXPECT_EQ(Tcl("set l {}; lappend l 1; lappend l 2 3; set l"), "1 2 3");
  EXPECT_EQ(Tcl("lrange {a b c d e} 1 3"), "b c d");
  EXPECT_EQ(Tcl("list a {b c} d"), "a {b c} d");
}

TEST(Interp, StringCommands) {
  EXPECT_EQ(Tcl("string length hello"), "5");
  EXPECT_EQ(Tcl("string index hello 1"), "e");
  EXPECT_EQ(Tcl("string range hello 1 3"), "ell");
  EXPECT_EQ(Tcl("string compare abc abd"), "-1");
}

TEST(Interp, PutsCapturesOutput) {
  Interp interp;
  interp.EvalOrThrow("puts hello\nputs world");
  EXPECT_EQ(interp.output(), "hello\nworld\n");
}

TEST(Interp, CatchContainsErrors) {
  EXPECT_EQ(Tcl("catch {expr {1 / 0}} msg"), "1");
  EXPECT_EQ(Tcl("catch {expr {1 / 0}} msg; set msg"), "divide by zero");
  EXPECT_EQ(Tcl("catch {set ok 5} msg; set msg"), "5");
}

TEST(Interp, ErrorsNameTheProblem) {
  Interp interp;
  EXPECT_EQ(interp.Eval("nosuchcommand"), Code::kError);
  EXPECT_NE(interp.result().find("invalid command name"), std::string::npos);
  EXPECT_EQ(interp.Eval("set"), Code::kError);
  EXPECT_EQ(interp.Eval("set x; set x"), Code::kError);  // read of unset var... set x reads
}

TEST(Interp, UnsetRemovesVariables) {
  Interp interp;
  interp.EvalOrThrow("set x 3");
  EXPECT_EQ(interp.EvalOrThrow("info exists x"), "1");
  interp.EvalOrThrow("unset x");
  EXPECT_EQ(interp.EvalOrThrow("info exists x"), "0");
  EXPECT_EQ(interp.Eval("unset x"), Code::kError);
}

TEST(Interp, FuelPreemptsRunawayScript) {
  Interp interp;
  interp.SetFuel(10000);
  EXPECT_EQ(interp.Eval("while {1} { set x 1 }"), Code::kError);
  EXPECT_NE(interp.result().find("preempted"), std::string::npos);
  // Interpreter remains usable after refueling.
  interp.SetFuel(-1);
  EXPECT_EQ(interp.EvalOrThrow("expr {1 + 1}"), "2");
}

TEST(Interp, FuelExhaustionIsStickyThroughCatch) {
  Interp interp;
  interp.SetFuel(1000);
  // `catch` swallows the exhaustion error, but every later command must
  // fail the same way: the script cannot run on unmetered.
  EXPECT_EQ(interp.Eval("set n 0; catch { while 1 { incr n } }; set m 0; "
                        "while {$m < 200000} { incr m }; set m"),
            Code::kError);
  EXPECT_NE(interp.result().find("preempted"), std::string::npos);
  EXPECT_EQ(interp.fuel(), 0);
}

TEST(Interp, EvalDepthLimit) {
  Interp interp;
  // Infinite recursion through command substitution must error, not crash.
  EXPECT_EQ(interp.Eval("proc f {} { return [f] }\nf"), Code::kError);
}

TEST(Interp, HostCommandsIntegrate) {
  Interp interp;
  std::int64_t kernel_state = 0;
  interp.RegisterCommand("k_poke", [&](Interp& in, const std::vector<std::string>& argv) {
    if (argv.size() != 2) {
      return in.Error("usage: k_poke value");
    }
    std::int64_t v;
    if (!tclet::ParseInt(argv[1], v)) {
      return in.Error("bad int");
    }
    kernel_state = v;
    in.set_result(tclet::IntToString(v * 2));
    return Code::kOk;
  });
  EXPECT_EQ(interp.EvalOrThrow("k_poke 21"), "42");
  EXPECT_EQ(kernel_state, 21);
}

TEST(Interp, CommandsExecutedCounterAdvances) {
  Interp interp;
  interp.EvalOrThrow("set a 1; set b 2; set c 3");
  EXPECT_GE(interp.commands_executed(), 3u);
}

}  // namespace
