#include "src/grafts/sched_grafts.h"

#include <cstring>
#include <stdexcept>
#include <string>

#include "src/grafts/minnow_grafts.h"
#include "src/minnow/compiler.h"
#include "src/minnow/vm.h"
#include "src/tclet/interp.h"
#include "src/upcall/upcall_engine.h"

namespace grafts {

namespace {

using minnow::Value;

// Task kinds as integers across the boundary: 0=client, 1=server, 2=batch.
constexpr char kMinnowSource[] = R"minnow(
var cursor: int = 0;

fn pick_next() -> int {
  var n: int = task_count();
  // Server first, iff it has outstanding requests.
  for (var i: int = 0; i < n; i = i + 1) {
    if (task_kind(i) == 1 && task_runnable(i) && task_pending(i) > 0) {
      return i;
    }
  }
  // Otherwise round-robin among runnable non-servers.
  for (var step: int = 0; step < n; step = step + 1) {
    var i: int = (cursor + 1 + step) % n;
    if (task_runnable(i) && task_kind(i) != 1) {
      cursor = i;
      return i;
    }
  }
  return 0 - 1;
}
)minnow";

constexpr char kTcletSource[] = R"tcl(
set cursor 0

proc pick_next {} {
  global cursor
  set n [task_count]
  for {set i 0} {$i < $n} {incr i} {
    if {[task_kind $i] == 1 && [task_runnable $i] && [task_pending $i] > 0} {
      return $i
    }
  }
  for {set step 0} {$step < $n} {incr step} {
    set i [expr {($cursor + 1 + $step) % $n}]
    if {[task_runnable $i] && [task_kind $i] != 1} {
      set cursor $i
      return $i
    }
  }
  return -1
}
)tcl";

int KindCode(sched::TaskKind kind) {
  switch (kind) {
    case sched::TaskKind::kClient: return 0;
    case sched::TaskKind::kServer: return 1;
    case sched::TaskKind::kBatch: return 2;
  }
  return 2;
}

class MinnowSchedulerGraft : public sched::SchedulerGraft {
 public:
  explicit MinnowSchedulerGraft(bool jit) : jit_(jit) {
    minnow::HostDecl count{"task_count", {}, minnow::Type::Int()};
    minnow::HostDecl kind{"task_kind", {minnow::Type::Int()}, minnow::Type::Int()};
    minnow::HostDecl runnable{"task_runnable", {minnow::Type::Int()}, minnow::Type::Bool()};
    minnow::HostDecl pending{"task_pending", {minnow::Type::Int()}, minnow::Type::Int()};

    vm_ = std::make_unique<minnow::VM>(
        minnow::Compile(kMinnowSource, {count, kind, runnable, pending}), JavaVmOptions(jit));
    vm_->BindHost("task_count", [this](minnow::VM&, std::span<const Value>) {
      return Value::Int(static_cast<std::int64_t>(tasks_->size()));
    });
    vm_->BindHost("task_kind", [this](minnow::VM&, std::span<const Value> args) {
      return Value::Int(KindCode(At(args).kind));
    });
    vm_->BindHost("task_runnable", [this](minnow::VM&, std::span<const Value> args) {
      return Value::Int(At(args).runnable ? 1 : 0);
    });
    vm_->BindHost("task_pending", [this](minnow::VM&, std::span<const Value> args) {
      return Value::Int(At(args).pending_requests);
    });
    vm_->RunInit();
  }

  sched::TaskId PickNext(const std::vector<sched::Task>& tasks) override {
    tasks_ = &tasks;
    const Value result = vm_->Call("pick_next", {});
    tasks_ = nullptr;
    const std::int64_t id = result.AsInt();
    return id < 0 ? sched::kNoTask : static_cast<sched::TaskId>(id);
  }

  const char* technology() const override { return JavaTechnologyName(jit_); }

 private:
  const sched::Task& At(std::span<const Value> args) const {
    static const sched::Task kDummy;
    const std::int64_t i = args[0].AsInt();
    if (tasks_ == nullptr || i < 0 || static_cast<std::size_t>(i) >= tasks_->size()) {
      return kDummy;  // hostile index: harmless answer, kernel validates
    }
    return (*tasks_)[static_cast<std::size_t>(i)];
  }

  bool jit_;
  std::unique_ptr<minnow::VM> vm_;
  const std::vector<sched::Task>* tasks_ = nullptr;
};

class TcletSchedulerGraft : public sched::SchedulerGraft {
 public:
  TcletSchedulerGraft() {
    auto lookup = [this](tclet::Interp& interp, const std::vector<std::string>& argv,
                         auto&& project) {
      std::int64_t i = 0;
      if (argv.size() != 2 || !tclet::ParseInt(argv[1], i) || tasks_ == nullptr || i < 0 ||
          static_cast<std::size_t>(i) >= tasks_->size()) {
        interp.set_result("0");
        return tclet::Code::kOk;
      }
      interp.set_result(
          tclet::IntToString(project((*tasks_)[static_cast<std::size_t>(i)])));
      return tclet::Code::kOk;
    };
    interp_.RegisterCommand("task_count",
                            [this](tclet::Interp& interp, const std::vector<std::string>&) {
                              interp.set_result(tclet::IntToString(
                                  tasks_ == nullptr
                                      ? 0
                                      : static_cast<std::int64_t>(tasks_->size())));
                              return tclet::Code::kOk;
                            });
    interp_.RegisterCommand("task_kind",
                            [lookup](tclet::Interp& interp, const std::vector<std::string>& argv) {
                              return lookup(interp, argv, [](const sched::Task& task) {
                                return static_cast<std::int64_t>(KindCode(task.kind));
                              });
                            });
    interp_.RegisterCommand(
        "task_runnable",
        [lookup](tclet::Interp& interp, const std::vector<std::string>& argv) {
          return lookup(interp, argv, [](const sched::Task& task) {
            return static_cast<std::int64_t>(task.runnable ? 1 : 0);
          });
        });
    interp_.RegisterCommand(
        "task_pending",
        [lookup](tclet::Interp& interp, const std::vector<std::string>& argv) {
          return lookup(interp, argv, [](const sched::Task& task) {
            return static_cast<std::int64_t>(task.pending_requests);
          });
        });
    if (interp_.Eval(kTcletSource) == tclet::Code::kError) {
      throw std::runtime_error("tclet scheduler: " + interp_.result());
    }
  }

  sched::TaskId PickNext(const std::vector<sched::Task>& tasks) override {
    tasks_ = &tasks;
    const tclet::Code code = interp_.Eval("pick_next");
    tasks_ = nullptr;
    if (code == tclet::Code::kError) {
      throw std::runtime_error("tclet scheduler: " + interp_.result());
    }
    std::int64_t id = -1;
    tclet::ParseInt(interp_.result(), id);
    return id < 0 ? sched::kNoTask : static_cast<sched::TaskId>(id);
  }

  const char* technology() const override { return "Tcl"; }

 private:
  tclet::Interp interp_;
  const std::vector<sched::Task>* tasks_ = nullptr;
};

// The native policy in a forked server. The run queue crosses by value: a
// Task per task, carrying only the fields ClientServerPolicy reads.
class UpcallSchedulerGraft : public sched::SchedulerGraft {
 public:
  UpcallSchedulerGraft()
      : engine_(upcall::Serving<sched::ClientServerPolicy>(
            [](auto& policy, const upcall::Request& request) -> std::uint64_t {
              std::vector<sched::Task> tasks(request.payload_len / sizeof(sched::Task));
              std::memcpy(tasks.data(), request.payload, tasks.size() * sizeof(sched::Task));
              return policy.PickNext(tasks);
            })) {}

  sched::TaskId PickNext(const std::vector<sched::Task>& tasks) override {
    const std::size_t bytes = tasks.size() * sizeof(sched::Task);
    if (bytes > upcall::UpcallEngine::kPayloadBytes) {
      throw std::length_error("upcall scheduler: run queue exceeds the mailbox");
    }
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const sched::Task& task = tasks[i];
      const sched::Task wire{.id = task.id, .kind = task.kind, .runnable = task.runnable,
                             .pending_requests = task.pending_requests};
      std::memcpy(engine_.payload() + i * sizeof(wire), &wire, sizeof(wire));
    }
    return static_cast<sched::TaskId>(engine_.Upcall(0, 0, 0, 0, bytes));
  }

  const char* technology() const override { return "Upcall"; }

 private:
  upcall::UpcallEngine engine_;
};

}  // namespace

const char* MinnowSchedulerSource() { return kMinnowSource; }
const char* TcletSchedulerSource() { return kTcletSource; }

std::unique_ptr<sched::SchedulerGraft> CreateSchedulerGraft(core::Technology technology) {
  using core::Technology;
  switch (technology) {
    case Technology::kJava:
      return std::make_unique<MinnowSchedulerGraft>(/*jit=*/false);
    case Technology::kJavaTranslated:
      return std::make_unique<MinnowSchedulerGraft>(/*jit=*/true);
    case Technology::kTcl:
      return std::make_unique<TcletSchedulerGraft>();
    case Technology::kUpcall:
      return std::make_unique<UpcallSchedulerGraft>();
    default:
      // The compiled technologies share the native policy: its state is two
      // integers and its inputs arrive via kernel reads either way.
      return std::make_unique<sched::ClientServerPolicy>();
  }
}

}  // namespace grafts
