// ACL graft implementations for the interpreted technologies (the upcall
// adapter lives in acl_grafts.cc).

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
