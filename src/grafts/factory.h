// Factory: every (graft shape x technology) combination the paper compares,
// behind one call.

#ifndef GRAFTLAB_SRC_GRAFTS_FACTORY_H_
#define GRAFTLAB_SRC_GRAFTS_FACTORY_H_

#include <memory>

#include "src/core/graft.h"
#include "src/core/technology.h"
#include "src/envs/preempt.h"

namespace grafts {

// Creates the page-eviction (Prioritization) graft for `technology`.
// `preempt` (optional) is polled by the safe compiled technologies and by Upcall's wait.
std::unique_ptr<core::PrioritizationGraft> CreateEvictionGraft(
    core::Technology technology, envs::PreemptToken* preempt = nullptr);

// Creates the MD5 fingerprint (Stream) graft for `technology`.
std::unique_ptr<core::StreamGraft> CreateMd5Graft(core::Technology technology,
                                                  envs::PreemptToken* preempt = nullptr);

// Creates the logical-disk bookkeeping (Black Box) graft for `technology`.
std::unique_ptr<core::BlackBoxGraft> CreateLogicalDiskGraft(
    core::Technology technology, const ldisk::Geometry& geometry,
    envs::PreemptToken* preempt = nullptr);

}  // namespace grafts

#endif  // GRAFTLAB_SRC_GRAFTS_FACTORY_H_
