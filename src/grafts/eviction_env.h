// The VM page-eviction graft for compiled technologies (paper §3.1, §5.4).
//
// One algorithm, templated over the execution environment: the graft keeps
// the application's hot list as a linked list of nodes in its own (env)
// heap — "the C graft searches a linked list of structs, where the Modula-3
// graft searches a linked list of Modula-3 RECORDs" — and, handed the LRU
// chain head, accepts the kernel's candidate unless it is hot, in which
// case it walks the chain for the first non-hot page.
//
// EnvEvictionGraft reads the kernel's frames directly through
// Env::AdoptKernel (valid for unsafe C, the safe language, and write+jump
// SFI). MarshaledEvictionGraft is the full-protection variant: the graft
// cannot read kernel memory, so a trusted kernel-side stub feeds it each
// candidate's page number by value; the graft's own hot-list accesses still
// pay full (read+write) masking.

#ifndef GRAFTLAB_SRC_GRAFTS_EVICTION_ENV_H_
#define GRAFTLAB_SRC_GRAFTS_EVICTION_ENV_H_

#include <cstdint>

#include "src/core/graft.h"
#include "src/envs/env_concept.h"
#include "src/vmsim/frame.h"

namespace grafts {

template <typename Env>
class EnvEvictionGraft : public core::PrioritizationGraft {
 public:
  template <typename... EnvArgs>
  explicit EnvEvictionGraft(EnvArgs&&... env_args)
      : env_(static_cast<EnvArgs&&>(env_args)...) {}

  vmsim::Frame* ChooseVictim(vmsim::Frame* lru_head) override {
    auto candidate = env_.AdoptKernel(lru_head);
    while (!candidate.IsNull()) {
      env_.Poll();
      const vmsim::PageId page = candidate.Get(&vmsim::Frame::page);
      if (!IsHot(static_cast<std::int64_t>(page))) {
        return candidate.KernelPointer();
      }
      candidate = env_.AdoptKernel(candidate.Get(&vmsim::Frame::lru_next));
    }
    // Everything resident is hot: accept the kernel's default.
    return lru_head;
  }

  void HotListAdd(vmsim::PageId page) override {
    auto node = env_.template New<HotNode>();
    node.Set(&HotNode::page, static_cast<std::int64_t>(page));
    node.Set(&HotNode::next, head_);
    head_ = node;
    ++size_;
  }

  void HotListRemove(vmsim::PageId page) override {
    const std::int64_t target = static_cast<std::int64_t>(page);
    Ref prev;
    for (Ref cur = head_; !cur.IsNull(); cur = cur.Get(&HotNode::next)) {
      if (cur.Get(&HotNode::page) == target) {
        if (prev.IsNull()) {
          head_ = cur.Get(&HotNode::next);
        } else {
          prev.Set(&HotNode::next, cur.Get(&HotNode::next));
        }
        --size_;
        return;
      }
      prev = cur;
    }
  }

  void HotListClear() override {
    head_ = Ref();
    size_ = 0;
    env_.ResetHeap();
  }

  const char* technology() const override { return Env::kName; }
  std::size_t hot_list_size() const { return size_; }

  // The per-candidate search; an upcall server runs it on page ids by value.
  bool IsHot(std::int64_t page) {
    for (Ref cur = head_; !cur.IsNull(); cur = cur.Get(&HotNode::next)) {
      if (cur.Get(&HotNode::page) == page) {
        return true;
      }
    }
    return false;
  }

 private:
  struct HotNode;
  using Ref = typename Env::template Ref<HotNode>;
  struct HotNode {
    std::int64_t page = 0;
    Ref next;
  };

  Env env_;
  Ref head_;
  std::size_t size_ = 0;
};

// Full-protection SFI variant: a kernel stub reads the frames and passes
// page numbers by value; all graft-private accesses are fully masked.
template <typename Env>
class MarshaledEvictionGraft : public core::PrioritizationGraft {
 public:
  template <typename... EnvArgs>
  explicit MarshaledEvictionGraft(EnvArgs&&... env_args)
      : env_(static_cast<EnvArgs&&>(env_args)...) {}

  vmsim::Frame* ChooseVictim(vmsim::Frame* lru_head) override {
    for (vmsim::Frame* cursor = lru_head; cursor != nullptr; cursor = cursor->lru_next) {
      env_.Poll();
      // Kernel stub hands the page number across the protection boundary.
      if (!IsHot(static_cast<std::int64_t>(cursor->page))) {
        return cursor;
      }
    }
    return lru_head;
  }

  void HotListAdd(vmsim::PageId page) override {
    auto node = env_.template New<HotNode>();
    node.Set(&HotNode::page, static_cast<std::int64_t>(page));
    node.Set(&HotNode::next, head_);
    head_ = node;
  }

  void HotListRemove(vmsim::PageId page) override {
    const std::int64_t target = static_cast<std::int64_t>(page);
    Ref prev;
    for (Ref cur = head_; !cur.IsNull(); cur = cur.Get(&HotNode::next)) {
      if (cur.Get(&HotNode::page) == target) {
        if (prev.IsNull()) {
          head_ = cur.Get(&HotNode::next);
        } else {
          prev.Set(&HotNode::next, cur.Get(&HotNode::next));
        }
        return;
      }
      prev = cur;
    }
  }

  void HotListClear() override {
    head_ = Ref();
    env_.ResetHeap();
  }

  const char* technology() const override { return Env::kName; }

 private:
  struct HotNode;
  using Ref = typename Env::template Ref<HotNode>;
  struct HotNode {
    std::int64_t page = 0;
    Ref next;
  };

  bool IsHot(std::int64_t page) {
    for (Ref cur = head_; !cur.IsNull(); cur = cur.Get(&HotNode::next)) {
      if (cur.Get(&HotNode::page) == page) {
        return true;
      }
    }
    return false;
  }

  Env env_;
  Ref head_;
};

}  // namespace grafts

#endif  // GRAFTLAB_SRC_GRAFTS_EVICTION_ENV_H_
