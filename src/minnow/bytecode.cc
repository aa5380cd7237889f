#include "src/minnow/bytecode.h"

#include <sstream>

namespace minnow {

std::string Disassemble(const FunctionCode& fn) {
  std::ostringstream out;
  out << "fn " << fn.name << " params=" << fn.num_params << " locals=" << fn.num_locals
      << " max_stack=" << fn.max_stack << "\n";
  for (std::size_t pc = 0; pc < fn.code.size(); ++pc) {
    const Insn& insn = fn.code[pc];
    out << "  " << pc << ": " << OpName(insn.op);
    switch (InfoOf(insn.op).operand) {
      case Operand::kNone:
        break;
      case Operand::kImmTarget:
        out << " " << ImmBranchValue(insn.operand) << " -> " << ImmBranchTarget(insn.operand);
        break;
      case Operand::kConstLocal:
        out << " " << ConstStoreValue(insn.operand) << " -> local " << ConstStoreSlot(insn.operand);
        break;
      case Operand::kLocalConst:
        out << " local " << ConstStoreSlot(insn.operand) << ", " << ConstStoreValue(insn.operand);
        break;
      case Operand::kLocalPair:
      case Operand::kGlobalLocal:
        out << " " << SlotPairA(insn.operand) << ", " << SlotPairB(insn.operand);
        break;
      default:
        out << " " << insn.operand;
        break;
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace minnow
