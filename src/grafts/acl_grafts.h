// ACL graft implementations for the interpreted and upcall technologies.

#ifndef GRAFTLAB_SRC_GRAFTS_ACL_GRAFTS_H_
#define GRAFTLAB_SRC_GRAFTS_ACL_GRAFTS_H_

#include <memory>

#include "src/core/acl.h"
#include "src/core/technology.h"
#include "src/envs/preempt.h"
#include "src/envs/unsafe_env.h"
#include "src/grafts/acl_env.h"
#include "src/grafts/minnow_grafts.h"
#include "src/minnow/vm.h"
#include "src/tclet/interp.h"
#include "src/upcall/upcall_engine.h"

namespace grafts {

class MinnowAclGraft : public core::AccessControlGraft {
 public:
  // `jit` selects Technology::kJavaTranslated (see JavaVmOptions).
  explicit MinnowAclGraft(std::size_t capacity, bool jit = false);

  bool Check(core::UserId user, core::FileId file, core::Access access) override;
  bool Grant(core::UserId user, core::FileId file, core::Access access) override;
  void Revoke(core::UserId user, core::FileId file, core::Access access) override;
  const char* technology() const override;

 private:
  bool jit_;
  std::unique_ptr<minnow::VM> vm_;
};

class TcletAclGraft : public core::AccessControlGraft {
 public:
  TcletAclGraft();

  bool Check(core::UserId user, core::FileId file, core::Access access) override;
  bool Grant(core::UserId user, core::FileId file, core::Access access) override;
  void Revoke(core::UserId user, core::FileId file, core::Access access) override;
  const char* technology() const override { return "Tcl"; }

 private:
  tclet::Interp interp_;
};

class UpcallAclGraft : public core::AccessControlGraft {
 public:
  explicit UpcallAclGraft(std::size_t capacity)
      : server_graft_(capacity),
        engine_([this](std::uint64_t arg) { return Dispatch(arg); }) {}

  bool Check(core::UserId user, core::FileId file, core::Access access) override {
    op_ = Op::kCheck;
    return Call(user, file, access) != 0;
  }
  bool Grant(core::UserId user, core::FileId file, core::Access access) override {
    op_ = Op::kGrant;
    return Call(user, file, access) != 0;
  }
  void Revoke(core::UserId user, core::FileId file, core::Access access) override {
    op_ = Op::kRevoke;
    Call(user, file, access);
  }
  const char* technology() const override { return "Upcall"; }

 private:
  enum class Op { kCheck, kGrant, kRevoke };

  std::uint64_t Call(core::UserId user, core::FileId file, core::Access access) {
    user_ = user;
    file_ = file;
    access_ = access;
    return engine_.Upcall(0);
  }

  std::uint64_t Dispatch(std::uint64_t) {
    switch (op_) {
      case Op::kCheck:
        return server_graft_.Check(user_, file_, access_) ? 1 : 0;
      case Op::kGrant:
        return server_graft_.Grant(user_, file_, access_) ? 1 : 0;
      case Op::kRevoke:
        server_graft_.Revoke(user_, file_, access_);
        return 0;
    }
    return 0;
  }

  EnvAclGraft<envs::UnsafeEnv> server_graft_;
  Op op_ = Op::kCheck;
  core::UserId user_ = 0;
  core::FileId file_ = 0;
  core::Access access_ = core::kRead;
  upcall::UpcallEngine engine_;
};

// Factory covering every technology. `capacity` (power of two) bounds the
// compiled/VM hash tables; the Tcl implementation is backed by an
// associative array and effectively unbounded.
std::unique_ptr<core::AccessControlGraft> CreateAclGraft(core::Technology technology,
                                                         std::size_t capacity = 4096,
                                                         envs::PreemptToken* preempt = nullptr);

// Exposed for tests.
const char* MinnowAclSource();
const char* TcletAclSource();

}  // namespace grafts

#endif  // GRAFTLAB_SRC_GRAFTS_ACL_GRAFTS_H_
