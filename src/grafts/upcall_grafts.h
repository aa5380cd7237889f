// Grafts served from a user-level server (core::Technology::kUpcall).
//
// The extension logic is plain compiled code (the UnsafeEnv graft), but it
// is built in, and runs in, a forked server process: every kernel->graft
// interaction is a synchronous upcall through upcall::UpcallEngine's
// shared-page mailbox. Arguments cross by value, so the server never reads
// kernel memory. This is the paper's hardware-protection column:
// per-invocation cost = upcall round trip + marshaling + the work itself.

#ifndef GRAFTLAB_SRC_GRAFTS_UPCALL_GRAFTS_H_
#define GRAFTLAB_SRC_GRAFTS_UPCALL_GRAFTS_H_

#include <algorithm>
#include <cstring>

#include "src/core/graft.h"
#include "src/envs/unsafe_env.h"
#include "src/grafts/eviction_env.h"
#include "src/grafts/ldisk_env.h"
#include "src/grafts/md5_graft_env.h"
#include "src/upcall/upcall_engine.h"

namespace grafts {

class UpcallEvictionGraft : public core::PrioritizationGraft {
 public:
  explicit UpcallEvictionGraft(envs::PreemptToken* preempt = nullptr)
      : engine_(upcall::Serving<EnvEvictionGraft<envs::UnsafeEnv>>(
                    [](auto& graft, const upcall::Request& request) -> std::uint64_t {
                      if (request.op == kChoose) {
                        // The first page of this chunk that is not hot, or kNone.
                        for (std::uint64_t i = 0; i < request.payload_len / kIdBytes; ++i) {
                          std::int64_t page = 0;
                          std::memcpy(&page, request.payload + i * kIdBytes, kIdBytes);
                          if (!graft.IsHot(page)) {
                            return i;
                          }
                        }
                        return kNone;
                      }
                      if (request.op == kAdd) {
                        graft.HotListAdd(request.args[0]);
                      } else if (request.op == kRemove) {
                        graft.HotListRemove(request.args[0]);
                      } else {
                        graft.HotListClear();
                      }
                      return 0;
                    }),
                preempt) {}

  // Sends the LRU chain's page ids a mailbox at a time until the server
  // names a position that is not hot.
  vmsim::Frame* ChooseVictim(vmsim::Frame* lru_head) override {
    for (vmsim::Frame* chunk = lru_head; chunk != nullptr;) {
      std::uint64_t n = 0;
      vmsim::Frame* cursor = chunk;
      for (; cursor != nullptr && n < kChunk; cursor = cursor->lru_next, ++n) {
        const auto page = static_cast<std::int64_t>(cursor->page);
        std::memcpy(engine_.payload() + n * kIdBytes, &page, kIdBytes);
      }
      const std::uint64_t position = engine_.Upcall(kChoose, 0, 0, 0, n * kIdBytes);
      if (position < n) {
        for (std::uint64_t i = 0; i < position; ++i) {
          chunk = chunk->lru_next;
        }
        return chunk;
      }
      chunk = cursor;
    }
    return lru_head;  // everything resident is hot: the kernel's default
  }
  void HotListAdd(vmsim::PageId page) override { engine_.Upcall(kAdd, page); }
  void HotListRemove(vmsim::PageId page) override { engine_.Upcall(kRemove, page); }
  void HotListClear() override { engine_.Upcall(kClear); }
  const char* technology() const override { return "Upcall"; }

 private:
  enum Op : std::uint32_t { kChoose, kAdd, kRemove, kClear };
  static constexpr std::size_t kIdBytes = sizeof(std::int64_t);  // one page id
  static constexpr std::uint64_t kChunk = upcall::UpcallEngine::kPayloadBytes / kIdBytes;
  static constexpr std::uint64_t kNone = ~std::uint64_t{0};

  upcall::UpcallEngine engine_;
};

class UpcallMd5Graft : public core::StreamGraft {
 public:
  explicit UpcallMd5Graft(envs::PreemptToken* preempt = nullptr)
      : engine_(upcall::Serving<EnvMd5Graft<envs::UnsafeEnv>>(
                    [](auto& graft, const upcall::Request& request) -> std::uint64_t {
                      if (request.op == kConsume) {
                        graft.Consume(request.payload, request.payload_len);
                      } else {
                        const md5::Digest digest = graft.Finish();
                        std::memcpy(request.payload, digest.data(), digest.size());
                      }
                      return 0;
                    }),
                preempt) {}

  // One upcall per block of at most a mailbox payload — the paper assumes
  // one per 64KB disk transfer.
  void Consume(const std::uint8_t* data, std::size_t len) override {
    while (len > 0) {
      const std::size_t block = std::min(len, upcall::UpcallEngine::kPayloadBytes);
      std::memcpy(engine_.payload(), data, block);
      engine_.Upcall(kConsume, 0, 0, 0, block);
      data += block;
      len -= block;
    }
  }

  md5::Digest Finish() override {
    engine_.Upcall(kFinish);
    md5::Digest digest{};
    std::memcpy(digest.data(), engine_.payload(), digest.size());
    return digest;
  }

  const char* technology() const override { return "Upcall"; }
  pid_t server_pid() const { return engine_.server_pid(); }

 private:
  enum Op : std::uint32_t { kConsume, kFinish };

  upcall::UpcallEngine engine_;
};

class UpcallLogicalDiskGraft : public core::BlackBoxGraft {
 public:
  explicit UpcallLogicalDiskGraft(const ldisk::Geometry& geometry,
                                  envs::PreemptToken* preempt = nullptr)
      : engine_(upcall::Serving<EnvLogicalDiskGraft<envs::UnsafeEnv>>(
                    [](auto& graft, const upcall::Request& request) -> std::uint64_t {
                      if (request.op == kTranslate) {
                        return graft.Translate(request.args[0]);
                      }
                      try {
                        return graft.OnWrite(request.args[0]);
                      } catch (const ldisk::DiskFull&) {
                        return ldisk::kUnmapped;  // marshaled back across the boundary
                      }
                    },
                    geometry),
                preempt) {}

  ldisk::BlockId OnWrite(ldisk::BlockId logical) override {
    const std::uint64_t reply = engine_.Upcall(kWrite, logical);
    if (reply == ldisk::kUnmapped) {
      throw ldisk::DiskFull();
    }
    return reply;
  }
  ldisk::BlockId Translate(ldisk::BlockId logical) override {
    return engine_.Upcall(kTranslate, logical);
  }
  const char* technology() const override { return "Upcall"; }
  pid_t server_pid() const { return engine_.server_pid(); }

 private:
  enum Op : std::uint32_t { kWrite, kTranslate };

  upcall::UpcallEngine engine_;
};

}  // namespace grafts

#endif  // GRAFTLAB_SRC_GRAFTS_UPCALL_GRAFTS_H_
