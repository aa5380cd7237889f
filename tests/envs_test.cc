// Tests for the execution-environment policies: identical semantics on the
// happy path, divergent behavior exactly where the technologies differ
// (bounds faults, NIL faults, sandbox containment, preemption).

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <thread>

#include "src/core/deadline_wheel.h"
#include "src/envs/arena.h"
#include "src/envs/env_concept.h"
#include "src/envs/fault.h"
#include "src/envs/preempt.h"
#include "src/envs/safe_env.h"
#include "src/envs/sfi_env.h"
#include "src/envs/unsafe_env.h"
#include "src/envs/word.h"

namespace {

using envs::BoundsFault;
using envs::NilFault;
using envs::PreemptFault;

static_assert(envs::EnvLike<envs::UnsafeEnv>);
static_assert(envs::EnvLike<envs::SafeLangEnv>);
static_assert(envs::EnvLike<envs::SafeLangTrapEnv>);
static_assert(envs::EnvLike<envs::SfiEnv>);
static_assert(envs::EnvLike<envs::SfiFullEnv>);

// A linked node shaped like the paper's hot-list entries.
template <typename Env>
struct Node {
  std::int64_t value = 0;
  typename Env::template Ref<Node> next;
};

// --- Shared semantics across all environments (typed test suite) ---

template <typename Env>
class EnvSemantics : public ::testing::Test {
 protected:
  Env env_;
};

using AllEnvs = ::testing::Types<envs::UnsafeEnv, envs::SafeLangEnv, envs::SafeLangTrapEnv,
                                 envs::SfiEnv, envs::SfiFullEnv>;
TYPED_TEST_SUITE(EnvSemantics, AllEnvs);

TYPED_TEST(EnvSemantics, ArrayRoundTrips) {
  auto a = this->env_.template NewArray<std::uint32_t>(64);
  EXPECT_EQ(a.size(), 64u);
  for (std::size_t i = 0; i < 64; ++i) {
    a.Set(i, static_cast<std::uint32_t>(i * i + 1));
  }
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(a.Get(i), static_cast<std::uint32_t>(i * i + 1));
  }
}

TYPED_TEST(EnvSemantics, ArraysAreZeroInitialized) {
  auto a = this->env_.template NewArray<std::uint64_t>(16);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(a.Get(i), 0u);
  }
}

TYPED_TEST(EnvSemantics, RefFieldAccess) {
  using N = Node<TypeParam>;
  auto node = this->env_.template New<N>();
  EXPECT_FALSE(node.IsNull());
  node.Set(&N::value, std::int64_t{42});
  EXPECT_EQ(node.Get(&N::value), 42);
  EXPECT_TRUE(node.Get(&N::next).IsNull());
}

TYPED_TEST(EnvSemantics, LinkedListTraversal) {
  // Build and walk a 100-node list — the eviction graft's data shape.
  using N = Node<TypeParam>;
  using Ref = typename TypeParam::template Ref<N>;
  Ref head;
  for (std::int64_t i = 99; i >= 0; --i) {
    auto node = this->env_.template New<N>();
    node.Set(&N::value, i);
    node.Set(&N::next, head);
    head = node;
  }
  std::int64_t expected = 0;
  std::int64_t sum = 0;
  for (Ref cur = head; !cur.IsNull(); cur = cur.Get(&N::next)) {
    EXPECT_EQ(cur.Get(&N::value), expected);
    sum += cur.Get(&N::value);
    ++expected;
  }
  EXPECT_EQ(expected, 100);
  EXPECT_EQ(sum, 99 * 100 / 2);
}

TYPED_TEST(EnvSemantics, DefaultRefIsNull) {
  using N = Node<TypeParam>;
  typename TypeParam::template Ref<N> ref;
  EXPECT_TRUE(ref.IsNull());
}

TYPED_TEST(EnvSemantics, ResetHeapAllowsReuse) {
  auto a = this->env_.template NewArray<std::uint8_t>(1024);
  a.Set(0, std::uint8_t{7});
  this->env_.ResetHeap();
  auto b = this->env_.template NewArray<std::uint8_t>(1024);
  EXPECT_EQ(b.Get(0), 0u);
}

// --- Technology-specific behavior ---

TEST(SafeLangEnv, OutOfBoundsThrows) {
  envs::SafeLangEnv env;
  auto a = env.NewArray<std::uint32_t>(8);
  EXPECT_THROW(a.Get(8), BoundsFault);
  EXPECT_THROW(a.Set(100, 1u), BoundsFault);
  EXPECT_THROW(a.Get(static_cast<std::size_t>(-1)), BoundsFault);
}

TEST(SafeLangEnv, NilDereferenceThrows) {
  using N = Node<envs::SafeLangEnv>;
  envs::SafeLangEnv::Ref<N> nil;
  EXPECT_THROW(nil.Get(&N::value), NilFault);
  EXPECT_THROW(nil.Set(&N::value, std::int64_t{1}), NilFault);
}

TEST(SafeLangEnv, BoundsFaultMessageNamesIndexAndSize) {
  envs::SafeLangEnv env;
  auto a = env.NewArray<std::uint32_t>(8);
  try {
    a.Get(12);
    FAIL() << "expected BoundsFault";
  } catch (const BoundsFault& fault) {
    EXPECT_NE(std::string(fault.what()).find("12"), std::string::npos);
    EXPECT_NE(std::string(fault.what()).find("8"), std::string::npos);
  }
}

TEST(SfiEnv, OutOfBoundsIsContainedNotDetected) {
  // SFI redirects instead of faulting: a wild subscript lands somewhere in
  // the sandbox, and memory outside is untouched.
  envs::SfiEnv env(1 << 16);
  auto a = env.NewArray<std::uint32_t>(8);
  EXPECT_NO_THROW(a.Set(1 << 20, 0xDEADBEEFu));
  EXPECT_NO_THROW(a.Get(1 << 20));
}

TEST(SfiEnv, WildStoresStayInSandbox) {
  envs::SfiEnv env(1 << 16);
  auto a = env.NewArray<std::uint64_t>(4);
  std::vector<std::uint64_t> canary(512, 0x5A5A5A5A5A5A5A5Aull);

  std::mt19937_64 rng(99);
  for (int i = 0; i < 20000; ++i) {
    a.Set(rng(), rng());
  }
  for (const auto v : canary) {
    ASSERT_EQ(v, 0x5A5A5A5A5A5A5A5Aull);
  }
}

TEST(SfiEnv, NullRefStoreIsContained) {
  using N = Node<envs::SfiEnv>;
  envs::SfiEnv env(1 << 16);
  // Address 0 masks to sandbox offset 0, so leave a scratch landing zone
  // there: SFI containment means the graft may clobber its *own* data.
  (void)env.NewArray<std::uint8_t>(256);
  auto real = env.New<N>();
  real.Set(&N::value, std::int64_t{17});
  // A ref at address 0 (NIL): masking sends the store into the sandbox
  // instead of dereferencing NULL — no crash, no detection, no escape.
  envs::SfiEnv::Ref<N> null_with_sandbox(0, &env.sandbox());
  EXPECT_NO_THROW(null_with_sandbox.Set(&N::value, std::int64_t{1}));
  EXPECT_EQ(real.Get(&N::value), 17);
}

TEST(SfiFullEnv, LoadsAreMaskedToo) {
  envs::SfiFullEnv env(1 << 16);
  auto a = env.NewArray<std::uint32_t>(8);
  a.Set(0, 123u);
  // A wild read is redirected into the sandbox rather than segfaulting.
  volatile std::uint32_t v = a.Get(1u << 30);
  (void)v;
}

TEST(Preempt, PollThrowsAfterRequestStop) {
  envs::PreemptToken token;
  envs::SafeLangEnv env(&token);
  EXPECT_NO_THROW(env.Poll());
  token.RequestStop();
  EXPECT_THROW(env.Poll(), PreemptFault);
  token.Reset();
  EXPECT_NO_THROW(env.Poll());
}

TEST(Preempt, WatchdogTripsLongRunningGraft) {
  envs::PreemptToken token;
  envs::SafeLangEnv env(&token);
  bool preempted = false;
  {
    core::ArmGuard deadline(core::DeadlineWheel::Shared(), token, std::chrono::microseconds(2000));
    try {
      for (;;) {
        env.Poll();
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    } catch (const PreemptFault&) {
      preempted = true;
    }
  }
  EXPECT_TRUE(preempted);
}

TEST(Preempt, BackToBackBudgetedRunsDoNotLeakTrip) {
  // Regression: a token tripped during one budgeted invocation must be
  // reset before the next one, or an innocent graft's first Poll() throws.
  // TokenResetGuard is the kernel-side idiom (GraftHost uses it on every
  // exit path, including exceptional ones).
  envs::PreemptToken token;
  envs::SafeLangEnv env(&token);

  bool first_preempted = false;
  {
    envs::TokenResetGuard reset(token);
    core::ArmGuard deadline(core::DeadlineWheel::Shared(), token, std::chrono::microseconds(1000));
    try {
      for (;;) {
        env.Poll();
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    } catch (const PreemptFault&) {
      first_preempted = true;
    }
  }
  EXPECT_TRUE(first_preempted);
  EXPECT_FALSE(token.stop_requested());

  // Second budgeted run on the same token: generous budget, quick body. It
  // must run to completion without a spurious PreemptFault.
  {
    envs::TokenResetGuard reset(token);
    core::ArmGuard deadline(core::DeadlineWheel::Shared(), token, std::chrono::seconds(30));
    for (int i = 0; i < 1000; ++i) {
      ASSERT_NO_THROW(env.Poll());
    }
  }
}

TEST(Preempt, TokenResetGuardResetsOnExceptionPath) {
  envs::PreemptToken token;
  try {
    envs::TokenResetGuard reset(token);
    token.RequestStop();
    throw envs::NilFault();  // unwinds through the guard
  } catch (const NilFault&) {
  }
  EXPECT_FALSE(token.stop_requested());
}

TEST(Preempt, WatchdogCancelsCleanly) {
  envs::PreemptToken token;
  {
    core::ArmGuard deadline(core::DeadlineWheel::Shared(), token, std::chrono::seconds(30));
  }  // destructor must not wait 30s (test would time out if it did)
  EXPECT_FALSE(token.stop_requested());
}

TEST(UnsafeEnv, PollIsNoOpEvenWhenStopRequested) {
  envs::PreemptToken token;
  token.RequestStop();
  envs::UnsafeEnv env;
  EXPECT_NO_THROW(env.Poll());  // unsafe C cannot be preempted
}

TEST(Arena, OversizedAllocationGetsDedicatedBlock) {
  envs::Arena arena(1024);
  void* big = arena.Allocate(1 << 16, 8);
  EXPECT_NE(big, nullptr);
  void* small = arena.Allocate(16, 8);
  EXPECT_NE(small, nullptr);
}

TEST(Arena, RejectsExtendedAlignment) {
  envs::Arena arena;
  EXPECT_THROW(arena.Allocate(64, 64), envs::AllocFault);
}

TEST(Word, Word32MatchesNativeWrapping) {
  EXPECT_EQ(envs::Word32::Plus(0xFFFFFFFFu, 2u), 1u);
  EXPECT_EQ(envs::Word32::Rotate(0x80000001u, 1), 0x00000003u);
  EXPECT_EQ(envs::Word32::Not(0u), 0xFFFFFFFFu);
}

TEST(Word, Word32On64AgreesWithWord32Everywhere) {
  std::mt19937 rng(2026);
  for (int i = 0; i < 100000; ++i) {
    const std::uint32_t a = rng();
    const std::uint32_t b = rng();
    const unsigned n = 1 + (rng() % 31);
    ASSERT_EQ(envs::Word32::Plus(a, b), static_cast<std::uint32_t>(envs::Word32On64::Plus(a, b)));
    ASSERT_EQ(envs::Word32::Minus(a, b),
              static_cast<std::uint32_t>(envs::Word32On64::Minus(a, b)));
    ASSERT_EQ(envs::Word32::Times(a, b),
              static_cast<std::uint32_t>(envs::Word32On64::Times(a, b)));
    ASSERT_EQ(envs::Word32::Xor(a, b), static_cast<std::uint32_t>(envs::Word32On64::Xor(a, b)));
    ASSERT_EQ(envs::Word32::Rotate(a, n),
              static_cast<std::uint32_t>(envs::Word32On64::Rotate(a, n)));
    ASSERT_EQ(envs::Word32::LeftShift(a, n),
              static_cast<std::uint32_t>(envs::Word32On64::LeftShift(a, n)));
    ASSERT_EQ(envs::Word32::RightShift(a, n),
              static_cast<std::uint32_t>(envs::Word32On64::RightShift(a, n)));
  }
}

}  // namespace
