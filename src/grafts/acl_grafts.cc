#include "src/grafts/acl_grafts.h"

#include <stdexcept>

#include "src/envs/safe_env.h"
#include "src/envs/sfi_env.h"
#include "src/minnow/compiler.h"
#include "src/upcall/upcall_engine.h"

namespace grafts {

namespace {

using minnow::Value;

// The same open-addressing table as EnvAclGraft, in Minnow. Entries stay
// occupied with an empty mask after revocation so probe chains never break.
constexpr char kMinnowAclSource[] = R"minnow(
var keys: int[];
var masks: int[];
var cap: int = 0;
var entries: int = 0;

fn acl_init(capacity: int) {
  cap = capacity;
  keys = new int[capacity];
  masks = new int[capacity];
  for (var i: int = 0; i < capacity; i = i + 1) {
    keys[i] = 0 - 1;
  }
  entries = 0;
}

fn key_of(user: int, file: int) -> int {
  return file * 1048576 + user % 1048576;
}

fn hash_of(key: int) -> int {
  // Keys are non-negative, so the remainders stay non-negative.
  return ((key % 999983) * 31 + key % 8191) % cap;
}

fn find(key: int) -> int {
  var slot: int = hash_of(key);
  var probes: int = 0;
  while (probes < cap) {
    var occupant: int = keys[slot];
    if (occupant == key) { return slot; }
    if (occupant < 0) { return 0 - 1; }
    slot = (slot + 1) % cap;
    probes = probes + 1;
  }
  return 0 - 1;
}

fn acl_check(user: int, file: int, want: int) -> bool {
  var direct: int = find(key_of(user, file));
  if (direct >= 0 && (masks[direct] & want) == want) { return true; }
  var world: int = find(key_of(0, file));
  if (world >= 0 && (masks[world] & want) == want) { return true; }
  return false;
}

fn acl_grant(user: int, file: int, bits: int) -> bool {
  var key: int = key_of(user, file);
  var slot: int = find(key);
  if (slot < 0) {
    if (entries * 4 >= cap * 3) { return false; }
    slot = hash_of(key);
    while (keys[slot] >= 0) { slot = (slot + 1) % cap; }
    keys[slot] = key;
    masks[slot] = 0;
    entries = entries + 1;
  }
  masks[slot] = masks[slot] | bits;
  return true;
}

fn acl_revoke(user: int, file: int, bits: int) {
  var slot: int = find(key_of(user, file));
  if (slot >= 0) {
    masks[slot] = masks[slot] & ~bits;
  }
}
)minnow";

constexpr char kTcletAclSource[] = R"tcl(
proc acl_key {user file} { return "$file,$user" }

proc acl_check {user file want} {
  global acl
  set k [acl_key $user $file]
  if {[info exists acl($k)]} {
    if {($acl($k) & $want) == $want} { return 1 }
  }
  set w [acl_key 0 $file]
  if {[info exists acl($w)]} {
    if {($acl($w) & $want) == $want} { return 1 }
  }
  return 0
}

proc acl_grant {user file bits} {
  global acl
  set k [acl_key $user $file]
  if {[info exists acl($k)]} {
    set acl($k) [expr {$acl($k) | $bits}]
  } else {
    set acl($k) $bits
  }
  return 1
}

proc acl_revoke {user file bits} {
  global acl
  set k [acl_key $user $file]
  if {[info exists acl($k)]} {
    set acl($k) [expr {$acl($k) & ~$bits}]
  }
}
)tcl";

}  // namespace

const char* MinnowAclSource() { return kMinnowAclSource; }
const char* TcletAclSource() { return kTcletAclSource; }

// --- MinnowAclGraft ---

MinnowAclGraft::MinnowAclGraft(std::size_t capacity, bool jit) : jit_(jit) {
  vm_ = std::make_unique<minnow::VM>(minnow::Compile(kMinnowAclSource), JavaVmOptions(jit));
  vm_->RunInit();
  const Value arg = Value::Int(static_cast<std::int64_t>(capacity));
  vm_->Call("acl_init", std::span<const Value>(&arg, 1));
}

bool MinnowAclGraft::Check(core::UserId user, core::FileId file, core::Access access) {
  const Value args[3] = {Value::Int(static_cast<std::int64_t>(user)),
                         Value::Int(static_cast<std::int64_t>(file)),
                         Value::Int(static_cast<std::int64_t>(access))};
  return vm_->Call("acl_check", args).AsBool();
}

bool MinnowAclGraft::Grant(core::UserId user, core::FileId file, core::Access access) {
  const Value args[3] = {Value::Int(static_cast<std::int64_t>(user)),
                         Value::Int(static_cast<std::int64_t>(file)),
                         Value::Int(static_cast<std::int64_t>(access))};
  return vm_->Call("acl_grant", args).AsBool();
}

void MinnowAclGraft::Revoke(core::UserId user, core::FileId file, core::Access access) {
  const Value args[3] = {Value::Int(static_cast<std::int64_t>(user)),
                         Value::Int(static_cast<std::int64_t>(file)),
                         Value::Int(static_cast<std::int64_t>(access))};
  vm_->Call("acl_revoke", args);
}

const char* MinnowAclGraft::technology() const {
  return JavaTechnologyName(jit_);
}

// --- TcletAclGraft ---

TcletAclGraft::TcletAclGraft() {
  if (interp_.Eval(kTcletAclSource) == tclet::Code::kError) {
    throw std::runtime_error("tclet acl: " + interp_.result());
  }
}

namespace {

// The C table in a forked server; user, file and access cross as scalars.
class UpcallAclGraft : public core::AccessControlGraft {
 public:
  UpcallAclGraft(std::size_t capacity, envs::PreemptToken* preempt)
      : engine_(upcall::Serving<EnvAclGraft<envs::UnsafeEnv>>(
                    [](auto& graft, const upcall::Request& request) -> std::uint64_t {
                      const auto [user, file, access] = request.args;
                      const auto mode = static_cast<core::Access>(access);
                      if (request.op == kCheck) {
                        return graft.Check(user, file, mode) ? 1 : 0;
                      }
                      if (request.op == kGrant) {
                        return graft.Grant(user, file, mode) ? 1 : 0;
                      }
                      graft.Revoke(user, file, mode);
                      return 0;
                    },
                    capacity),
                preempt) {}

  bool Check(core::UserId user, core::FileId file, core::Access access) override {
    return engine_.Upcall(kCheck, user, file, access) != 0;
  }
  bool Grant(core::UserId user, core::FileId file, core::Access access) override {
    return engine_.Upcall(kGrant, user, file, access) != 0;
  }
  void Revoke(core::UserId user, core::FileId file, core::Access access) override {
    engine_.Upcall(kRevoke, user, file, access);
  }
  const char* technology() const override { return "Upcall"; }

 private:
  enum Op : std::uint32_t { kCheck, kGrant, kRevoke };

  upcall::UpcallEngine engine_;
};

std::int64_t TclCall(tclet::Interp& interp, const std::string& command) {
  if (interp.Eval(command) == tclet::Code::kError) {
    throw std::runtime_error("tclet acl: " + interp.result());
  }
  std::int64_t value = 0;
  tclet::ParseInt(interp.result(), value);
  return value;
}
}  // namespace

bool TcletAclGraft::Check(core::UserId user, core::FileId file, core::Access access) {
  return TclCall(interp_, "acl_check " + std::to_string(user) + " " + std::to_string(file) +
                              " " + std::to_string(access)) != 0;
}

bool TcletAclGraft::Grant(core::UserId user, core::FileId file, core::Access access) {
  return TclCall(interp_, "acl_grant " + std::to_string(user) + " " + std::to_string(file) +
                              " " + std::to_string(access)) != 0;
}

void TcletAclGraft::Revoke(core::UserId user, core::FileId file, core::Access access) {
  TclCall(interp_, "acl_revoke " + std::to_string(user) + " " + std::to_string(file) + " " +
                       std::to_string(access));
}

// --- factory ---

std::unique_ptr<core::AccessControlGraft> CreateAclGraft(core::Technology technology,
                                                         std::size_t capacity,
                                                         envs::PreemptToken* preempt) {
  using core::Technology;
  switch (technology) {
    case Technology::kC:
      return std::make_unique<EnvAclGraft<envs::UnsafeEnv>>(capacity);
    case Technology::kModula3:
      return std::make_unique<EnvAclGraft<envs::SafeLangEnv>>(capacity, preempt);
    case Technology::kModula3Trap:
      return std::make_unique<EnvAclGraft<envs::SafeLangTrapEnv>>(capacity, preempt);
    case Technology::kSfi:
      return std::make_unique<EnvAclGraft<envs::SfiEnv>>(capacity, 1u << 20, preempt);
    case Technology::kSfiFull:
      return std::make_unique<EnvAclGraft<envs::SfiFullEnv>>(capacity, 1u << 20, preempt);
    case Technology::kJava:
      return std::make_unique<MinnowAclGraft>(capacity);
    case Technology::kJavaTranslated:
      return std::make_unique<MinnowAclGraft>(capacity, /*jit=*/true);
    case Technology::kTcl:
      return std::make_unique<TcletAclGraft>();
    case Technology::kUpcall:
      return std::make_unique<UpcallAclGraft>(capacity, preempt);
  }
  throw std::invalid_argument("unknown technology");
}

}  // namespace grafts
