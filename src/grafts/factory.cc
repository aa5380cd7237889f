#include "src/grafts/factory.h"

#include <stdexcept>

#include "src/envs/safe_env.h"
#include "src/envs/sfi_env.h"
#include "src/envs/unsafe_env.h"
#include "src/grafts/eviction_env.h"
#include "src/grafts/ldisk_env.h"
#include "src/grafts/md5_graft_env.h"
#include "src/grafts/minnow_grafts.h"
#include "src/grafts/tclet_grafts.h"
#include "src/grafts/upcall_grafts.h"

namespace grafts {

namespace {

using core::Technology;

std::size_t RoundUpPow2(std::size_t bytes) {
  std::size_t size = 4096;
  while (size < bytes) {
    size <<= 1;
  }
  return size;
}

// Sandbox sized for the logical-disk graft's three arrays plus slack.
std::size_t LdiskSandboxBytes(const ldisk::Geometry& geometry) {
  return RoundUpPow2(geometry.num_blocks * 8 * 2 + geometry.num_segments() * 8 + (1u << 16));
}

constexpr std::size_t kSmallSandbox = 1u << 20;

// Technology::kJavaTranslated, the paper's "compiled Java": the kJava graft
// compiled to native code at load time.
constexpr MinnowConfig kCompiledJava{.jit = true};

}  // namespace

std::unique_ptr<core::PrioritizationGraft> CreateEvictionGraft(Technology technology,
                                                               envs::PreemptToken* preempt) {
  switch (technology) {
    case Technology::kC:
      return std::make_unique<EnvEvictionGraft<envs::UnsafeEnv>>();
    case Technology::kModula3:
      return std::make_unique<EnvEvictionGraft<envs::SafeLangEnv>>(preempt);
    case Technology::kModula3Trap:
      return std::make_unique<EnvEvictionGraft<envs::SafeLangTrapEnv>>(preempt);
    case Technology::kSfi:
      return std::make_unique<EnvEvictionGraft<envs::SfiEnv>>(kSmallSandbox, preempt);
    case Technology::kSfiFull:
      return std::make_unique<MarshaledEvictionGraft<envs::SfiFullEnv>>(kSmallSandbox, preempt);
    case Technology::kJava:
      return std::make_unique<MinnowEvictionGraft>();
    case Technology::kJavaTranslated:
      return std::make_unique<MinnowEvictionGraft>(kCompiledJava);
    case Technology::kTcl:
      return std::make_unique<TcletEvictionGraft>();
    case Technology::kUpcall:
      return std::make_unique<UpcallEvictionGraft>(preempt);
  }
  throw std::invalid_argument("unknown technology");
}

std::unique_ptr<core::StreamGraft> CreateMd5Graft(Technology technology,
                                                  envs::PreemptToken* preempt) {
  switch (technology) {
    case Technology::kC:
      return std::make_unique<EnvMd5Graft<envs::UnsafeEnv>>();
    case Technology::kModula3:
      return std::make_unique<EnvMd5Graft<envs::SafeLangEnv>>(preempt);
    case Technology::kModula3Trap:
      return std::make_unique<EnvMd5Graft<envs::SafeLangTrapEnv>>(preempt);
    case Technology::kSfi:
      return std::make_unique<EnvMd5Graft<envs::SfiEnv>>(kSmallSandbox, preempt);
    case Technology::kSfiFull:
      return std::make_unique<EnvMd5Graft<envs::SfiFullEnv>>(kSmallSandbox, preempt);
    case Technology::kJava:
      return std::make_unique<MinnowMd5Graft>();
    case Technology::kJavaTranslated:
      return std::make_unique<MinnowMd5Graft>(kCompiledJava);
    case Technology::kTcl:
      return std::make_unique<TcletMd5Graft>();
    case Technology::kUpcall:
      return std::make_unique<UpcallMd5Graft>(preempt);
  }
  throw std::invalid_argument("unknown technology");
}

std::unique_ptr<core::BlackBoxGraft> CreateLogicalDiskGraft(Technology technology,
                                                            const ldisk::Geometry& geometry,
                                                            envs::PreemptToken* preempt) {
  switch (technology) {
    case Technology::kC:
      return std::make_unique<EnvLogicalDiskGraft<envs::UnsafeEnv>>(geometry);
    case Technology::kModula3:
      return std::make_unique<EnvLogicalDiskGraft<envs::SafeLangEnv>>(geometry, preempt);
    case Technology::kModula3Trap:
      return std::make_unique<EnvLogicalDiskGraft<envs::SafeLangTrapEnv>>(geometry, preempt);
    case Technology::kSfi:
      return std::make_unique<EnvLogicalDiskGraft<envs::SfiEnv>>(geometry,
                                                                 LdiskSandboxBytes(geometry),
                                                                 preempt);
    case Technology::kSfiFull:
      return std::make_unique<EnvLogicalDiskGraft<envs::SfiFullEnv>>(geometry,
                                                                     LdiskSandboxBytes(geometry),
                                                                     preempt);
    case Technology::kJava:
      return std::make_unique<MinnowLogicalDiskGraft>(geometry);
    case Technology::kJavaTranslated:
      return std::make_unique<MinnowLogicalDiskGraft>(geometry, kCompiledJava);
    case Technology::kTcl:
      return std::make_unique<TcletLogicalDiskGraft>(geometry);
    case Technology::kUpcall:
      return std::make_unique<UpcallLogicalDiskGraft>(geometry, preempt);
  }
  throw std::invalid_argument("unknown technology");
}

}  // namespace grafts
