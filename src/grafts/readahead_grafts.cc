#include "src/grafts/readahead_grafts.h"

#include <stdexcept>
#include <string>

#include "src/envs/safe_env.h"
#include "src/envs/sfi_env.h"
#include "src/envs/unsafe_env.h"
#include "src/grafts/minnow_grafts.h"
#include "src/minnow/compiler.h"
#include "src/minnow/vm.h"
#include "src/tclet/interp.h"
#include "src/upcall/upcall_engine.h"

namespace grafts {

namespace {

constexpr char kMinnowSource[] = R"minnow(
var expected: int = 0 - 1;
var window: int = 1;
var have_last: bool = false;

fn ra_window(page: int) -> int {
  if (have_last && page == expected) {
    window = window * 2;
    if (window > 16) { window = 16; }
  } else {
    window = 1;
  }
  expected = page + window;
  have_last = true;
  return window;
}
)minnow";

constexpr char kTcletSource[] = R"tcl(
set expected -1
set window 1
set have_last 0

proc ra_window {page} {
  global expected window have_last
  if {$have_last && $page == $expected} {
    set window [expr {$window * 2}]
    if {$window > 16} { set window 16 }
  } else {
    set window 1
  }
  set expected [expr {$page + $window}]
  set have_last 1
  return $window
}
)tcl";

class MinnowReadAheadGraft : public vmsim::ReadAheadGraft {
 public:
  explicit MinnowReadAheadGraft(bool jit) : jit_(jit) {
    vm_ = std::make_unique<minnow::VM>(minnow::Compile(kMinnowSource), JavaVmOptions(jit));
    vm_->RunInit();
  }

  int Window(vmsim::PageId page) override {
    const minnow::Value arg = minnow::Value::Int(static_cast<std::int64_t>(page));
    return static_cast<int>(vm_->Call("ra_window", {arg}).AsInt());
  }

  const char* technology() const override { return JavaTechnologyName(jit_); }

 private:
  bool jit_;
  std::unique_ptr<minnow::VM> vm_;
};

class TcletReadAheadGraft : public vmsim::ReadAheadGraft {
 public:
  TcletReadAheadGraft() {
    if (interp_.Eval(kTcletSource) == tclet::Code::kError) {
      throw std::runtime_error("tclet readahead: " + interp_.result());
    }
  }

  int Window(vmsim::PageId page) override {
    if (interp_.Eval("ra_window " + std::to_string(page)) == tclet::Code::kError) {
      throw std::runtime_error("tclet readahead: " + interp_.result());
    }
    std::int64_t window = 1;
    tclet::ParseInt(interp_.result(), window);
    return static_cast<int>(window);
  }

  const char* technology() const override { return "Tcl"; }

 private:
  tclet::Interp interp_;
};

// The native policy in a forked server; the page crosses as a scalar.
class UpcallReadAheadGraft : public vmsim::ReadAheadGraft {
 public:
  explicit UpcallReadAheadGraft(envs::PreemptToken* preempt)
      : engine_(upcall::Serving<vmsim::AdaptiveReadAhead>(
                    [](auto& policy, const upcall::Request& request) -> std::uint64_t {
                      return static_cast<std::uint64_t>(policy.Window(request.args[0]));
                    }),
                preempt) {}

  int Window(vmsim::PageId page) override {
    return static_cast<int>(engine_.Upcall(0, page));
  }
  const char* technology() const override { return "Upcall"; }

 private:
  upcall::UpcallEngine engine_;
};

}  // namespace

const char* MinnowReadAheadSource() { return kMinnowSource; }
const char* TcletReadAheadSource() { return kTcletSource; }

std::unique_ptr<vmsim::ReadAheadGraft> CreateReadAheadGraft(core::Technology technology,
                                                            envs::PreemptToken* preempt) {
  using core::Technology;
  switch (technology) {
    case Technology::kC:
      return std::make_unique<EnvReadAheadGraft<envs::UnsafeEnv>>();
    case Technology::kModula3:
      return std::make_unique<EnvReadAheadGraft<envs::SafeLangEnv>>(preempt);
    case Technology::kModula3Trap:
      return std::make_unique<EnvReadAheadGraft<envs::SafeLangTrapEnv>>(preempt);
    case Technology::kSfi:
      return std::make_unique<EnvReadAheadGraft<envs::SfiEnv>>(std::size_t{4096}, preempt);
    case Technology::kSfiFull:
      return std::make_unique<EnvReadAheadGraft<envs::SfiFullEnv>>(std::size_t{4096}, preempt);
    case Technology::kJava:
      return std::make_unique<MinnowReadAheadGraft>(/*jit=*/false);
    case Technology::kJavaTranslated:
      return std::make_unique<MinnowReadAheadGraft>(/*jit=*/true);
    case Technology::kTcl:
      return std::make_unique<TcletReadAheadGraft>();
    case Technology::kUpcall:
      return std::make_unique<UpcallReadAheadGraft>(preempt);
  }
  throw std::invalid_argument("unknown technology");
}

}  // namespace grafts
