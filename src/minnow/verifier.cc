#include "src/minnow/verifier.h"

#include <vector>

#include "src/minnow/elide.h"

namespace minnow {

namespace {

bool ValidElemKind(std::int64_t operand) {
  const auto kind = static_cast<TypeKind>(operand);
  return kind == TypeKind::kInt || kind == TypeKind::kU32 || kind == TypeKind::kByte ||
         kind == TypeKind::kBool;
}

bool InRange(std::int64_t index, std::size_t size) {
  return index >= 0 && static_cast<std::size_t>(index) < size;
}

// Operand range checks, by what the operand holds; nullptr when it is in
// range. Branch targets are checked with the control flow.
const char* OperandError(const Program& program, const FunctionCode& fn, const Insn& insn) {
  const auto locals = static_cast<std::uint32_t>(fn.num_locals);
  switch (InfoOf(insn.op).operand) {
    case Operand::kLocal:
      return insn.operand >= 0 && insn.operand < fn.num_locals ? nullptr : "local slot out of range";
    case Operand::kConstLocal:
    case Operand::kLocalConst:
      return ConstStoreSlot(insn.operand) < locals ? nullptr : "local slot out of range";
    case Operand::kLocalPair:
      return SlotPairA(insn.operand) < locals && SlotPairB(insn.operand) < locals
                 ? nullptr
                 : "local slot out of range";
    case Operand::kGlobalLocal:
      if (SlotPairA(insn.operand) >= program.globals.size()) {
        return "global index out of range";
      }
      return SlotPairB(insn.operand) < locals ? nullptr : "local slot out of range";
    case Operand::kGlobal:
      return InRange(insn.operand, program.globals.size()) ? nullptr : "global index out of range";
    case Operand::kFunction:
      return InRange(insn.operand, program.functions.size()) ? nullptr : "call target out of range";
    case Operand::kHost:
      return InRange(insn.operand, program.host_imports.size())
                 ? nullptr
                 : "host import index out of range";
    case Operand::kStruct:
      return InRange(insn.operand, program.structs.size()) ? nullptr : "struct id out of range";
    case Operand::kElemKind:
      return ValidElemKind(insn.operand) ? nullptr : "invalid array element kind";
    case Operand::kField: {
      // Field indices are checked against the receiver's layout at run time
      // (the verifier tracks no types); they must at least be non-negative
      // and within the largest layout.
      int max_fields = 0;
      for (const auto& layout : program.structs) {
        if (layout.num_fields > max_fields) {
          max_fields = layout.num_fields;
        }
      }
      return insn.operand >= 0 && insn.operand < max_fields
                 ? nullptr
                 : "field index out of range for every struct layout";
    }
    default:
      return nullptr;
  }
}

VerifyReport VerifyFunction(const Program& program, FunctionCode& fn, int fn_index) {
  auto fail = [&](std::size_t pc, const std::string& message) {
    VerifyReport report;
    report.ok = false;
    report.message = "fn '" + fn.name + "': " + message;
    report.function = fn_index;
    report.pc = pc;
    return report;
  };

  if (fn.num_params > fn.num_locals) {
    return fail(0, "params exceed locals");
  }
  if (fn.code.empty()) {
    return fail(0, "empty code");
  }

  const std::size_t n = fn.code.size();
  std::vector<int> depth_at(n, -1);
  std::vector<std::size_t> worklist;
  depth_at[0] = 0;
  worklist.push_back(0);
  int max_stack = 0;

  while (!worklist.empty()) {
    const std::size_t pc = worklist.back();
    worklist.pop_back();
    const Insn& insn = fn.code[pc];
    const int depth = depth_at[pc];

    if (!IsValidOp(insn.op)) {
      return fail(pc, "unknown opcode");
    }
    if (const char* error = OperandError(program, fn, insn)) {
      return fail(pc, error);
    }
    StackShape shape;
    ResolveShape(program, insn, shape);  // the operand check proved any callee in range
    if (depth < shape.pops) {
      return fail(pc, "stack underflow");
    }
    const int after = depth - shape.pops + shape.pushes;
    if (after > kMaxStack) {
      return fail(pc, "stack overflow (static)");
    }
    if (after > max_stack) {
      max_stack = after;
    }

    auto flow_to = [&](std::size_t target) -> bool {
      if (target >= n) {
        return false;
      }
      if (depth_at[target] == -1) {
        depth_at[target] = after;
        worklist.push_back(target);
      } else if (depth_at[target] != after) {
        return false;  // inconsistent merge depth — treated as range error below
      }
      return true;
    };

    if (HasTarget(insn.op)) {
      const std::int64_t target = BranchTarget(insn);
      if (target < 0 || static_cast<std::size_t>(target) >= n) {
        return fail(pc, "branch target out of range");
      }
      if (!flow_to(static_cast<std::size_t>(target))) {
        return fail(pc, "inconsistent stack depth at branch target");
      }
    }
    if (FallsThrough(insn.op)) {
      if (pc + 1 >= n) {
        return fail(pc, "control falls off the end of the function");
      }
      if (!flow_to(pc + 1)) {
        return fail(pc, "inconsistent stack depth at fall-through");
      }
    }
  }

  fn.max_stack = max_stack;
  return VerifyReport{};
}

}  // namespace

VerifyReport VerifyProgram(Program& program) {
  // Unchecked opcodes are only legal under a matching elision certificate:
  // the proof that made them safe is bound to this exact opcode stream.
  bool has_unchecked = false;
  for (const auto& fn : program.functions) {
    for (const Insn& insn : fn.code) {
      if (IsUncheckedOp(insn.op)) {
        has_unchecked = true;
        break;
      }
    }
    if (has_unchecked) {
      break;
    }
  }
  if (has_unchecked && !ElisionCertificateValid(program)) {
    VerifyReport report;
    report.ok = false;
    report.message = program.elision.attached
                         ? "unchecked opcodes with a stale elision certificate"
                         : "unchecked opcodes without an elision certificate";
    return report;
  }
  for (std::size_t i = 0; i < program.functions.size(); ++i) {
    VerifyReport report = VerifyFunction(program, program.functions[i], static_cast<int>(i));
    if (!report.ok) {
      return report;
    }
  }
  return VerifyReport{};
}

}  // namespace minnow
