// Minnow superinstruction fusion — the load-time pass between verification
// and check elision (verify -> fuse -> elide -> interpreter | JIT).

#ifndef GRAFTLAB_SRC_MINNOW_FUSE_H_
#define GRAFTLAB_SRC_MINNOW_FUSE_H_

#include "src/minnow/bytecode.h"

namespace minnow {

struct FuseStats {
  std::size_t instructions_before = 0;
  std::size_t instructions_after = 0;
  std::size_t pairs_fused = 0;                 // LoadAddI / AddConstI / ConstStore
  std::size_t compare_branches_fused = 0;      // kBr*I / kBr*Ref
  std::size_t imm_compare_branches_fused = 0;  // kBr*ImmI triples
  std::size_t branches_inverted = 0;           // NotB + JmpIfX -> JmpIf!X
};

// Superinstruction fusion: collapses the adjacent-opcode pairs (and
// const+compare+branch triples) that dominate graft traces — the fusion set
// was chosen from the opcode-pair frequencies the VM profiler exports through
// graftd telemetry (see DESIGN.md). Fusion never crosses a jump target and
// preserves trap semantics exactly; only instruction (and therefore fuel)
// counts change. Fused programs still pass the verifier and run on every
// dispatcher, the JIT included. The caller should re-run VerifyProgram to
// refresh max_stack.
FuseStats FuseSuperinstructions(Program& program);

}  // namespace minnow

#endif  // GRAFTLAB_SRC_MINNOW_FUSE_H_
