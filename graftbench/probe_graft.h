// A benchmark-owned stream graft that wraps a real one: it can spin a fixed
// time per Consume (the known slowdown the sensitivity check injects) and
// record a body span per Consume..Finish, keyed by the request id the traced
// runs write into a payload's first 8 bytes.

#ifndef GRAFTBENCH_PROBE_GRAFT_H_
#define GRAFTBENCH_PROBE_GRAFT_H_

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>

#include "graftbench/common.h"
#include "src/core/graft.h"

namespace graftbench {

class ProbeGraft : public core::StreamGraft {
 public:
  // Body spans nest under `parent`: the served request on the wire, the
  // crossing when the dispatcher is driven directly.
  ProbeGraft(std::unique_ptr<core::StreamGraft> inner, std::uint64_t spin_ns, SpanLog* spans,
             Layer parent)
      : inner_(std::move(inner)), spin_ns_(spin_ns), spans_(spans), parent_(parent) {}

  void Consume(const std::uint8_t* data, std::size_t len) override {
    if (spans_ != nullptr && !open_) {
      open_ = true;
      start_ns_ = NowNs();
      request_ = 0;
      std::memcpy(&request_, data, std::min(len, sizeof(request_)));
    }
    if (spin_ns_ != 0) {
      SpinNs(spin_ns_);
    }
    inner_->Consume(data, len);
  }

  md5::Digest Finish() override {
    const md5::Digest digest = inner_->Finish();
    if (open_) {
      spans_->Record(Layer::kBody, parent_, request_, start_ns_, NowNs());
      open_ = false;
    }
    return digest;
  }

  const char* technology() const override { return inner_->technology(); }

 private:
  std::unique_ptr<core::StreamGraft> inner_;
  std::uint64_t spin_ns_;
  SpanLog* spans_;
  Layer parent_;
  bool open_ = false;
  std::uint64_t start_ns_ = 0;
  std::uint64_t request_ = 0;
};

// Wraps `inner` only when there is something to probe, so the default path
// serves the program's graft unchanged.
inline std::unique_ptr<core::StreamGraft> MaybeProbe(std::unique_ptr<core::StreamGraft> inner,
                                                     std::uint64_t spin_ns, SpanLog* spans,
                                                     Layer parent = Layer::kRequest) {
  if (spin_ns == 0 && spans == nullptr) {
    return inner;
  }
  return std::make_unique<ProbeGraft>(std::move(inner), spin_ns, spans, parent);
}

}  // namespace graftbench

#endif  // GRAFTBENCH_PROBE_GRAFT_H_
