#include "src/minnow/jit.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <stdexcept>

#include "src/minnow/verifier.h"
#include "src/minnow/vm.h"

// The real backend needs x86-64 SysV, GNU-flavored toolchain bits, and mmap.
// Everything else builds this translation unit with Available() == false.
#if defined(GRAFTLAB_JIT) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__)) && defined(__linux__)
#define GRAFTLAB_JIT_X64 1
#else
#define GRAFTLAB_JIT_X64 0
#endif

#if GRAFTLAB_JIT_X64
#include <sys/mman.h>
#endif

namespace minnow {

#if GRAFTLAB_JIT_X64

namespace {

// ---------------------------------------------------------------------------
// Register file and instruction encoder. Just enough of x86-64 for the
// templates below — every emitter is a thin REX/ModRM/SIB wrapper, verified
// against the SDM encodings noted alongside.
// ---------------------------------------------------------------------------

enum Reg : std::uint8_t {
  RAX = 0, RCX = 1, RDX = 2, RBX = 3, RSP = 4, RBP = 5, RSI = 6, RDI = 7,
  R8 = 8, R9 = 9, R10 = 10, R11 = 11, R12 = 12, R13 = 13, R14 = 14, R15 = 15,
};

// Condition codes (the low nibble of 0F 8x / 0F 9x).
enum Cc : std::uint8_t {
  CC_O = 0x0, CC_B = 0x2, CC_AE = 0x3, CC_E = 0x4, CC_NE = 0x5, CC_BE = 0x6,
  CC_A = 0x7, CC_S = 0x8, CC_NS = 0x9, CC_L = 0xC, CC_GE = 0xD, CC_LE = 0xE,
  CC_G = 0xF,
};

// /digit values for the 0x81 and 0xF7 / 0xD3 groups.
enum AluDigit : std::uint8_t {
  ALU_ADD = 0, ALU_OR = 1, ALU_AND = 4, ALU_SUB = 5, ALU_XOR = 6, ALU_CMP = 7,
};
enum GrpDigit : std::uint8_t {
  GRP_NOT = 2, GRP_NEG = 3, GRP_DIV = 6, GRP_IDIV = 7,
  SH_SHL = 4, SH_SHR = 5, SH_SAR = 7,
};

class Asm {
 public:
  std::vector<std::uint8_t> code;

  std::size_t pos() const { return code.size(); }
  void U8(std::uint8_t b) { code.push_back(b); }
  void U32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) U8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void U64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) U8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void PatchU32(std::size_t at, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) code[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  // Patches a rel32 at `at` to land on `target` (offsets within this buffer).
  void PatchRel32(std::size_t at, std::size_t target) {
    PatchU32(at, static_cast<std::uint32_t>(static_cast<std::int64_t>(target) -
                                            (static_cast<std::int64_t>(at) + 4)));
  }
  void PatchRel8(std::size_t at, std::size_t target) {
    code[at] = static_cast<std::uint8_t>(static_cast<std::int64_t>(target) -
                                         (static_cast<std::int64_t>(at) + 1));
  }

  void Rex(bool w, std::uint8_t reg, std::uint8_t index, std::uint8_t base) {
    const std::uint8_t rex = 0x40 | (w ? 8 : 0) | (((reg >> 3) & 1) << 2) |
                             (((index >> 3) & 1) << 1) | ((base >> 3) & 1);
    if (rex != 0x40) U8(rex);
  }

  // ModRM (+SIB) for [base + disp]. base==rsp/r12 forces a SIB byte;
  // base==rbp/r13 forces an explicit displacement even when zero.
  void Mem(std::uint8_t reg, std::uint8_t base, std::int32_t disp) {
    std::uint8_t mod;
    if (disp == 0 && (base & 7) != 5) {
      mod = 0;
    } else if (disp >= -128 && disp <= 127) {
      mod = 1;
    } else {
      mod = 2;
    }
    U8(static_cast<std::uint8_t>(mod << 6 | (reg & 7) << 3 | ((base & 7) == 4 ? 4 : (base & 7))));
    if ((base & 7) == 4) U8(0x24);  // SIB: no index, base in low bits
    if (mod == 1) U8(static_cast<std::uint8_t>(disp));
    if (mod == 2) U32(static_cast<std::uint32_t>(disp));
  }

  // ModRM+SIB for [base + index*2^scale + disp]. index must not be RSP.
  void MemSib(std::uint8_t reg, std::uint8_t base, std::uint8_t index, int scale,
              std::int32_t disp) {
    std::uint8_t mod;
    if (disp == 0 && (base & 7) != 5) {
      mod = 0;
    } else if (disp >= -128 && disp <= 127) {
      mod = 1;
    } else {
      mod = 2;
    }
    U8(static_cast<std::uint8_t>(mod << 6 | (reg & 7) << 3 | 4));
    U8(static_cast<std::uint8_t>(scale << 6 | (index & 7) << 3 | (base & 7)));
    if (mod == 1) U8(static_cast<std::uint8_t>(disp));
    if (mod == 2) U32(static_cast<std::uint32_t>(disp));
  }

  void ModReg(std::uint8_t reg, std::uint8_t rm) {
    U8(static_cast<std::uint8_t>(0xC0 | (reg & 7) << 3 | (rm & 7)));
  }

  // --- moves ---
  void MovRR(Reg dst, Reg src) { Rex(true, src, 0, dst); U8(0x89); ModReg(src, dst); }
  void MovRR32(Reg dst, Reg src) { Rex(false, src, 0, dst); U8(0x89); ModReg(src, dst); }
  void Load64(Reg dst, Reg base, std::int32_t disp) {
    Rex(true, dst, 0, base); U8(0x8B); Mem(dst, base, disp);
  }
  void Store64(Reg base, std::int32_t disp, Reg src) {
    Rex(true, src, 0, base); U8(0x89); Mem(src, base, disp);
  }
  void Load32(Reg dst, Reg base, std::int32_t disp) {  // zero-extends
    Rex(false, dst, 0, base); U8(0x8B); Mem(dst, base, disp);
  }
  void Store32(Reg base, std::int32_t disp, Reg src) {
    Rex(false, src, 0, base); U8(0x89); Mem(src, base, disp);
  }
  void Load8Zx(Reg dst, Reg base, std::int32_t disp) {  // movzx r32, byte [..]
    Rex(false, dst, 0, base); U8(0x0F); U8(0xB6); Mem(dst, base, disp);
  }

  void Load64Sib(Reg dst, Reg base, Reg index, int scale, std::int32_t disp) {
    Rex(true, dst, index, base); U8(0x8B); MemSib(dst, base, index, scale, disp);
  }
  void Store64Sib(Reg base, Reg index, int scale, std::int32_t disp, Reg src) {
    Rex(true, src, index, base); U8(0x89); MemSib(src, base, index, scale, disp);
  }
  void Load32Sib(Reg dst, Reg base, Reg index, int scale, std::int32_t disp) {
    Rex(false, dst, index, base); U8(0x8B); MemSib(dst, base, index, scale, disp);
  }
  void Store32Sib(Reg base, Reg index, int scale, std::int32_t disp, Reg src) {
    Rex(false, src, index, base); U8(0x89); MemSib(src, base, index, scale, disp);
  }
  void Load8ZxSib(Reg dst, Reg base, Reg index, int scale, std::int32_t disp) {
    Rex(false, dst, index, base); U8(0x0F); U8(0xB6); MemSib(dst, base, index, scale, disp);
  }
  void Store8(Reg base, std::int32_t disp, Reg src) {
    Rex8(src, 0, base); U8(0x88); Mem(src, base, disp);
  }
  void Store8Sib(Reg base, Reg index, int scale, std::int32_t disp, Reg src) {
    Rex8(src, index, base); U8(0x88); MemSib(src, base, index, scale, disp);
  }
  void MovImm64(Reg dst, std::uint64_t imm) {
    Rex(true, 0, 0, dst); U8(static_cast<std::uint8_t>(0xB8 | (dst & 7))); U64(imm);
  }
  void MovImm32Sx(Reg dst, std::int32_t imm) {  // mov r64, imm32 (sign-extends)
    Rex(true, 0, 0, dst); U8(0xC7); ModReg(0, dst); U32(static_cast<std::uint32_t>(imm));
  }
  void MovImm32(Reg dst, std::uint32_t imm) {  // mov r32, imm32 (zero-extends)
    Rex(false, 0, 0, dst); U8(static_cast<std::uint8_t>(0xB8 | (dst & 7))); U32(imm);
  }
  void StoreImm32Sx(Reg base, std::int32_t disp, std::int32_t imm) {  // mov qword [..], imm32
    Rex(true, 0, 0, base); U8(0xC7); Mem(0, base, disp); U32(static_cast<std::uint32_t>(imm));
  }
  // Loads an int64 with the shortest usable encoding.
  void MovImmAuto(Reg dst, std::int64_t imm) {
    if (imm >= INT32_MIN && imm <= INT32_MAX) {
      MovImm32Sx(dst, static_cast<std::int32_t>(imm));
    } else {
      MovImm64(dst, static_cast<std::uint64_t>(imm));
    }
  }

  // --- ALU, reg ← reg/mem forms. `opc` is the "reg, r/m" opcode byte
  // (0x03 add, 0x0B or, 0x23 and, 0x2B sub, 0x33 xor, 0x3B cmp); kImul
  // selects the two-byte 0F AF imul. `w` picks 64- vs 32-bit operands.
  static constexpr std::uint8_t kImul = 0xAF;
  void AluOpc(std::uint8_t opc) {
    if (opc == kImul) U8(0x0F);
    U8(opc);
  }
  void AluRR(std::uint8_t opc, Reg dst, Reg src, bool w) {
    Rex(w, dst, 0, src); AluOpc(opc); ModReg(dst, src);
  }
  void AluRMem(std::uint8_t opc, Reg dst, Reg base, std::int32_t disp, bool w) {
    Rex(w, dst, 0, base); AluOpc(opc); Mem(dst, base, disp);
  }
  void ImulImm(Reg dst, Reg src, std::int32_t imm, bool w) {  // imul r, r/m, imm32
    Rex(w, dst, 0, src); U8(0x69); ModReg(dst, src); U32(static_cast<std::uint32_t>(imm));
  }
  void AddMR(Reg base, std::int32_t disp, Reg src) { Rex(true, src, 0, base); U8(0x01); Mem(src, base, disp); }
  void SubRR(Reg dst, Reg src) { Rex(true, src, 0, dst); U8(0x29); ModReg(src, dst); }
  void CmpRR(Reg a, Reg b) { Rex(true, b, 0, a); U8(0x39); ModReg(b, a); }  // cmp a, b
  void CmpMR(Reg base, std::int32_t disp, Reg b) { Rex(true, b, 0, base); U8(0x39); Mem(b, base, disp); }
  void CmpRM(Reg a, Reg base, std::int32_t disp) { Rex(true, a, 0, base); U8(0x3B); Mem(a, base, disp); }
  void TestRR(Reg a, Reg b) { Rex(true, b, 0, a); U8(0x85); ModReg(b, a); }
  void TestRR32(Reg a, Reg b) { Rex(false, b, 0, a); U8(0x85); ModReg(b, a); }
  void XorRR32(Reg dst, Reg src) { Rex(false, src, 0, dst); U8(0x31); ModReg(src, dst); }

  // --- ALU with immediate (0x83 imm8 short form when it fits, else 0x81) ---
  static bool ImmFits8(std::int32_t imm) { return imm >= -128 && imm <= 127; }
  void AluImm(AluDigit digit, Reg rm, std::int32_t imm) {
    Rex(true, 0, 0, rm);
    if (ImmFits8(imm)) { U8(0x83); ModReg(digit, rm); U8(static_cast<std::uint8_t>(imm)); }
    else { U8(0x81); ModReg(digit, rm); U32(static_cast<std::uint32_t>(imm)); }
  }
  void AluMemImm(AluDigit digit, Reg base, std::int32_t disp, std::int32_t imm) {
    Rex(true, 0, 0, base);
    if (ImmFits8(imm)) { U8(0x83); Mem(digit, base, disp); U8(static_cast<std::uint8_t>(imm)); }
    else { U8(0x81); Mem(digit, base, disp); U32(static_cast<std::uint32_t>(imm)); }
  }
  void AluImm32(AluDigit digit, Reg rm, std::int32_t imm) {  // 32-bit form
    Rex(false, 0, 0, rm);
    if (ImmFits8(imm)) { U8(0x83); ModReg(digit, rm); U8(static_cast<std::uint8_t>(imm)); }
    else { U8(0x81); ModReg(digit, rm); U32(static_cast<std::uint32_t>(imm)); }
  }
  void CmpMemImm(Reg base, std::int32_t disp, std::int32_t imm) {  // cmp qword [..], imm32
    AluMemImm(ALU_CMP, base, disp, imm);
  }
  void CmpMemImm8u(Reg base, std::int32_t disp, std::uint8_t imm) {  // cmp byte [..], imm8
    Rex(false, 0, 0, base); U8(0x80); Mem(7, base, disp); U8(imm);
  }
  void Cmp32MemImm(Reg base, std::int32_t disp, std::int32_t imm) {  // cmp dword [..], imm32
    Rex(false, 0, 0, base); U8(0x81); Mem(7, base, disp); U32(static_cast<std::uint32_t>(imm));
  }

  // --- unary groups ---
  void Grp(GrpDigit digit, Reg rm, bool w = true) {  // F7 group: not/neg/div/idiv
    Rex(w, 0, 0, rm); U8(0xF7); ModReg(digit, rm);
  }
  void ShiftCl(GrpDigit digit, Reg rm, bool w = true) {  // D3 group by cl
    Rex(w, 0, 0, rm); U8(0xD3); ModReg(digit, rm);
  }
  void ShiftImm(GrpDigit digit, Reg rm, std::uint8_t count, bool w = true) {  // C1 group
    Rex(w, 0, 0, rm); U8(0xC1); ModReg(digit, rm); U8(count);
  }
  void NotR32(Reg rm) { Rex(false, 0, 0, rm); U8(0xF7); ModReg(GRP_NOT, rm); }
  void DecR(Reg rm) { Rex(true, 0, 0, rm); U8(0xFF); ModReg(1, rm); }
  void Cqo() { U8(0x48); U8(0x99); }

  // Byte-register operands: spl/bpl/sil/dil are only reachable with a REX
  // prefix (without one, encodings 4-7 name ah/ch/dh/bh), so byte forms
  // force an empty REX whenever the byte register is one of those.
  void Rex8(std::uint8_t reg8, std::uint8_t index, std::uint8_t base) {
    const std::uint8_t rex = 0x40 | (((reg8 >> 3) & 1) << 2) | (((index >> 3) & 1) << 1) |
                             ((base >> 3) & 1);
    if (rex != 0x40 || (reg8 >= 4 && reg8 < 8)) U8(rex);
  }
  void Setcc(Cc cc, Reg rm8) {
    if (rm8 >= 4) U8(static_cast<std::uint8_t>(0x40 | ((rm8 >> 3) & 1)));
    U8(0x0F); U8(static_cast<std::uint8_t>(0x90 | cc)); ModReg(0, rm8);
  }
  void MovzxR32R8(Reg dst, Reg src8) {
    const std::uint8_t rex = 0x40 | (((dst >> 3) & 1) << 2) | ((src8 >> 3) & 1);
    if (rex != 0x40 || (src8 >= 4 && src8 < 8)) U8(rex);
    U8(0x0F); U8(0xB6); ModReg(dst, src8);
  }

  void Lea(Reg dst, Reg base, std::int32_t disp) {
    Rex(true, dst, 0, base); U8(0x8D); Mem(dst, base, disp);
  }
  void LeaSib(Reg dst, Reg base, Reg index, int scale, std::int32_t disp) {
    Rex(true, dst, index, base); U8(0x8D); MemSib(dst, base, index, scale, disp);
  }

  // --- control flow ---
  // Emits jcc rel32 and returns the patch position of the rel32.
  std::size_t Jcc(Cc cc) {
    U8(0x0F); U8(static_cast<std::uint8_t>(0x80 | cc)); const std::size_t at = pos(); U32(0);
    return at;
  }
  std::size_t Jmp() { U8(0xE9); const std::size_t at = pos(); U32(0); return at; }
  // Short forward jump for intra-template skips; patch with PatchRel8.
  std::size_t Jcc8(Cc cc) { U8(static_cast<std::uint8_t>(0x70 | cc)); const std::size_t at = pos(); U8(0); return at; }

  void CallR(Reg r) { Rex(false, 0, 0, r); U8(0xFF); ModReg(2, r); }
  void CallMem(Reg base, std::int32_t disp) { Rex(false, 0, 0, base); U8(0xFF); Mem(2, base, disp); }
  void Push(Reg r) { Rex(false, 0, 0, r); U8(static_cast<std::uint8_t>(0x50 | (r & 7))); }
  void Pop(Reg r) { Rex(false, 0, 0, r); U8(static_cast<std::uint8_t>(0x58 | (r & 7))); }
  void Ret() { U8(0xC3); }
};

// ---------------------------------------------------------------------------
// Runtime layout probes. Object and VM::Frame offsets are discovered from
// live instances instead of offsetof — Object holds std::vector members, so
// offsetof would be conditionally-supported and -Winvalid-offsetof trips
// -Werror builds. JitCtx is standard-layout, probed the same way for
// uniformity.
// ---------------------------------------------------------------------------

struct Layout {
  std::int32_t obj_kind, obj_jit_data, obj_jit_len, obj_jit_elem;
  std::int32_t ctx_stack, ctx_globals, ctx_frames, ctx_nframes, ctx_sp, ctx_fuel,
      ctx_retired, ctx_entry_frames, ctx_ret_bits;
};

template <typename T, typename M>
std::int32_t OffsetIn(const T& object, const M& member) {
  return static_cast<std::int32_t>(reinterpret_cast<const char*>(&member) -
                                   reinterpret_cast<const char*>(&object));
}

const Layout& ProbeLayout() {
  static const Layout layout = [] {
    Layout l{};
    static const Object obj{};
    l.obj_kind = OffsetIn(obj, obj.kind);
    l.obj_jit_data = OffsetIn(obj, obj.jit_data);
    l.obj_jit_len = OffsetIn(obj, obj.jit_len);
    l.obj_jit_elem = OffsetIn(obj, obj.jit_elem);
    static const JitCtx ctx{};
    l.ctx_stack = OffsetIn(ctx, ctx.stack);
    l.ctx_globals = OffsetIn(ctx, ctx.globals);
    l.ctx_frames = OffsetIn(ctx, ctx.frames);
    l.ctx_nframes = OffsetIn(ctx, ctx.nframes);
    l.ctx_sp = OffsetIn(ctx, ctx.sp);
    l.ctx_fuel = OffsetIn(ctx, ctx.fuel);
    l.ctx_retired = OffsetIn(ctx, ctx.retired);
    l.ctx_entry_frames = OffsetIn(ctx, ctx.entry_frames);
    l.ctx_ret_bits = OffsetIn(ctx, ctx.ret_bits);
    return l;
  }();
  return layout;
}

// VM::Frame is private; Jit (a friend) probes its layout and hands the plain
// offsets to the compiler below.
struct FrameOffsets {
  std::int32_t fn, pc, base, size;
};

namespace {

// ---------------------------------------------------------------------------
// Per-function compiler. Pinned registers (callee-saved):
//   r14 = JitCtx*
//   r13 = locals base  (stack + 8*frame->base; operand slot i lives at
//                       [r13 + 8*(num_locals + i)])
//   rbx = globals base
//   r15 = fuel, and through its entry mark the retired ledger
// The current Frame* lives in the native frame ([rsp + kFrameOff]); only
// exits, calls, and returns read it. rbp, r12 and five caller-saved
// registers are home registers: a frame slot the allocator homes (see
// PlanHomes) lives in its register for the whole function. rax, rcx, rdx,
// rdi, and any home register the function leaves unused hold operand values
// (the deferred stack, below). There is no stack-pointer register: the
// verifier proves one operand depth per pc, so every operand address is
// static and sp_ is materialized only at side exits and helper calls
// (sp = frame->base + num_locals + depth).
// ---------------------------------------------------------------------------

constexpr Reg CTX = R14;
constexpr Reg LOCALS = R13;
constexpr Reg GLB = RBX;
// The live fuel counter. ctx->fuel is authoritative only at sync points
// (prologue/epilogue, call boundaries); in between, block accounting runs
// against the register so the common path is one sub and one taken-never
// branch. Unlimited runs (negative ctx->fuel) bias r15 to INT64_MAX — the
// subtracts still happen but can never exhaust, and every sync skips the
// store so the sentinel survives.
constexpr Reg FUEL = R15;
constexpr std::uint64_t kFuelUnlimitedBias = 0x7fffffffffffffffull;

// A branch target as a pc (the verifier proved it in range).
std::size_t TargetOf(const Insn& insn) { return static_cast<std::size_t>(BranchTarget(insn)); }

// Where a not-yet-stored operand's value lives while its block compiles.
// kMem names a 64-bit cell [base + disp]: the entry's own operand slot, or
// a local, spliced-callee local, or global the value was read from and
// which nothing has written since. kHome is the same kind of cell for a
// homed slot: its home register, which consumers may read but never
// clobber. kReg is a temporary the entry owns. kFlags is a comparison
// result still in the condition flags; it only ever sits on top of the
// stack and is turned into a 0/1 register before anything else runs.
struct Loc {
  enum Kind : std::uint8_t { kMem, kReg, kImm, kFlags, kHome };
  Kind kind = kMem;
  Reg reg = RAX;            // kReg/kHome: the register; kMem: the base register
  std::int32_t disp = 0;    // kMem
  std::int64_t imm = 0;     // kImm: the value; kFlags: the condition code

  static Loc Mem(Reg base, std::int32_t disp) { return {kMem, base, disp, 0}; }
  static Loc InReg(Reg r) { return {kReg, r, 0, 0}; }
  static Loc Home(Reg r) { return {kHome, r, 0, 0}; }
  static Loc Imm(std::int64_t v) { return {kImm, RAX, 0, v}; }
  static Loc Flags(Cc cc) { return {kFlags, RAX, 0, cc}; }
  bool FitsImm32() const { return kind == kImm && imm >= INT32_MIN && imm <= INT32_MAX; }
  bool InRegister() const { return kind == kReg || kind == kHome; }
};

bool SameLoc(const Loc& x, const Loc& y) {
  if (x.kind != y.kind) return false;
  switch (x.kind) {
    case Loc::kMem: return x.reg == y.reg && x.disp == y.disp;
    case Loc::kReg:
    case Loc::kHome: return x.reg == y.reg;
    default: return x.imm == y.imm;
  }
}

// The value registers: every caller-saved general register the function
// does not use as a home.
constexpr Reg kValueRegs[] = {RAX, RCX, RDX, RSI, RDI, R8, R9, R10, R11};
constexpr std::uint32_t Bit(Reg r) { return 1u << r; }
// Home registers in allocation order: the callee-saved pair first (they
// survive helper calls), then caller-saved ones, which are stored before
// and reloaded after every helper. rax, rcx, rdx and rdi never become
// homes, so the templates keep division, shift-count and helper-argument
// registers and at least four temporaries.
constexpr Reg kHomeRegs[] = {RBP, R12, R8, R9, R10, R11, RSI};
constexpr std::uint32_t kCalleeSavedHomes = Bit(RBP) | Bit(R12);

// The condition that holds for (b, a) when `cc` holds for (a, b).
Cc SwapCc(Cc cc) {
  switch (cc) {
    case CC_L: return CC_G;
    case CC_G: return CC_L;
    case CC_LE: return CC_GE;
    case CC_GE: return CC_LE;
    case CC_B: return CC_A;
    case CC_A: return CC_B;
    case CC_BE: return CC_AE;
    case CC_AE: return CC_BE;
    default: return cc;  // E, NE
  }
}

struct Compiler {
  const Program& program;
  const FunctionCode& fn;
  const VmOptions& opts;
  const Layout& L;
  const FrameOffsets& F;
  const void** entry_table;  // &entries_[0]; kCall sites load through it
  // Out-of-line helper entry points (private Jit members, so Impl passes
  // their addresses in rather than the compiler naming them).
  const void* help_push_frame;
  const void* help_call_host;
  const void* help_new_struct;
  const void* help_new_array;
  // VM-lifetime capacities (fixed at construction, arena-backed, never
  // resized) — lets kCall inline PushFrame with immediate-folded checks.
  std::size_t frame_capacity;
  std::size_t stack_slots;

  Asm a{};
  // Per-pc control-flow facts, for the function being compiled and (while
  // splicing) for the spliced callee.
  struct Flow {
    std::vector<int> depth;      // verifier-proven operand depth; -1 = unreachable
    std::vector<char> leader;    // starts a fuel-accounting block
    std::vector<char> target;    // some branch jumps here: operands arrive stored
    std::vector<int> blk_leader; // pc -> its block's leader pc
    std::vector<int> blk_len;    // leader pc -> instruction count
  };
  Flow flow{};
  std::vector<std::int64_t> pc_off{};  // pc -> native offset (-1 = not emitted)

  struct Fix {
    std::size_t at;
    std::size_t pc;
  };
  std::vector<Fix> fixes{};  // rel32 patches to bytecode-pc labels

  // A pending operand an exit stub stores before it deopts: the slot's
  // displacement from r13 and where the value is at the exit.
  using Pending = std::vector<std::pair<std::int32_t, Loc>>;
  struct Exit {
    std::size_t at;      // rel32 patch position jumping to this stub
    std::uint32_t pc;    // faulting bytecode pc (reexec only)
    int depth;           // operand depth at the site (reexec sp commit)
    std::int64_t give;   // block overcharge returned to r15 (both ledgers)
    bool reexec;         // true: kDeopt + frame rebuild; false: exception passthrough
    Pending pending;     // operands to store so the frame is memory-identical
    Pending homes;       // homed locals live at the site, stored the same way
    // Exits raised inside a spliced (inlined) callee: the stub materializes
    // the frame the hot path skipped, so pc/depth above are callee-relative
    // and the interpreter resumes inside the callee as if kCall had pushed.
    const FunctionCode* inl_callee = nullptr;
    std::int32_t inl_kk = 0;       // callee base - caller base, in slots
    std::int32_t inl_ret_pc = 0;   // caller pc after the kCall
  };
  std::vector<Exit> exits{};
  std::vector<std::size_t> epi_fixes{};  // rel32 patches to the epilogue
  std::size_t epilogue_off = 0;
  bool bad_ = false;  // a template hit a state it cannot encode: bail the function

  // --- native frame --------------------------------------------------------
  // Below the six saved registers the prologue reserves three qwords (which
  // also keeps rsp 16-aligned at helper calls): the retired-ledger mark,
  // the spliced-call limit flag, and the current Frame*.
  static constexpr std::int32_t kFrameReserve = 24;
  static constexpr std::int32_t kMarkOff = 0;    // r15 when the ledger last synced
  static constexpr std::int32_t kFlagOff = 8;    // see EmitSpliceLimitFlag
  static constexpr std::int32_t kFrameOff = 16;  // VM::Frame* of this activation

  // --- the deferred operand stack -------------------------------------------
  //
  // vs_[i] describes operand slot i (caller coordinates, spliced callee
  // frames included) while the current block compiles. Producers push a
  // location instead of storing; consumers read registers, immediates, or
  // memory operands straight from it. A value reaches its slot's canonical
  // place — the home register of a homed slot, else its memory cell — only
  // when something needs it there: a branch or a join (every jump target
  // starts with each operand in its canonical place, so all incoming paths
  // agree), a helper or kCall, or an exit stub, which stores the entries it
  // was handed into memory before it deopts. Templates emit their exits
  // before they clobber any input, so at every exit the inputs are still
  // where vs_ says.
  std::vector<Loc> vs_{};
  std::uint32_t held_ = 0;        // template temporaries, released per insn
  std::size_t spill_floor_ = 0;   // AllocReg may spill only entries below this

  std::int32_t SlotDisp(std::size_t d) const {
    return static_cast<std::int32_t>(8 * (static_cast<std::size_t>(fn.num_locals) + d));
  }
  // The canonical place of the frame slot at [r13 + disp].
  Loc Cell(std::int32_t disp) const {
    const auto s = static_cast<std::size_t>(disp / 8);
    if (s < home_.size() && home_[s] >= 0) return Loc::Home(static_cast<Reg>(home_[s]));
    return Loc::Mem(LOCALS, disp);
  }
  Loc Canon(std::size_t i) const { return Cell(SlotDisp(i)); }
  bool OwnSlot(std::size_t i) const { return SameLoc(vs_[i], Canon(i)); }
  bool InMemSlot(std::size_t i) const { return SameLoc(vs_[i], Loc::Mem(LOCALS, SlotDisp(i))); }
  void ResetStack(std::size_t d) {
    vs_.clear();
    for (std::size_t i = 0; i < d; ++i) vs_.push_back(Canon(i));
  }
  void Push(const Loc& l) {
    if (l.kind == Loc::kReg) held_ &= ~Bit(l.reg);  // the entry owns it now
    vs_.push_back(l);
  }
  void Drop(std::size_t n) { vs_.resize(vs_.size() - n); }

  std::uint32_t UsedRegs() const {
    std::uint32_t used = held_ | home_mask_;
    for (const Loc& l : vs_) {
      if (l.kind == Loc::kReg) used |= Bit(l.reg);
    }
    return used;
  }
  // Whether an entry below `to`, other than `except`, reads `cell`.
  bool Referenced(const Loc& cell, std::size_t except, std::size_t to = SIZE_MAX) const {
    for (std::size_t i = 0; i < vs_.size() && i < to; ++i) {
      if (i != except && SameLoc(vs_[i], cell)) return true;
    }
    return false;
  }
  // A free value register, held until the current instruction ends. With
  // all of them taken, the deepest register entry below the instruction's
  // inputs moves to its canonical place to make room.
  Reg AllocReg() {
    const std::uint32_t used = UsedRegs();
    for (const Reg r : kValueRegs) {
      if ((used & Bit(r)) == 0) {
        held_ |= Bit(r);
        return r;
      }
    }
    for (std::size_t i = 0; i < spill_floor_ && i < vs_.size(); ++i) {
      if (vs_[i].kind != Loc::kReg) continue;
      const Loc c = Canon(i);
      if (c.kind == Loc::kHome && Referenced(c, i)) continue;  // would need an invalidation
      const Reg r = vs_[i].reg;
      if (c.kind == Loc::kHome) {
        a.MovRR(c.reg, r);
      } else {
        a.Store64(LOCALS, SlotDisp(i), r);
      }
      vs_[i] = c;
      held_ |= Bit(r);
      return r;
    }
    bad_ = true;
    return RAX;
  }
  void Release(Reg r) { held_ &= ~Bit(r); }
  // Frees `r` for a template that needs that exact register (division,
  // shift counts): the entry holding it moves to another register, unless
  // making room spilled that very entry to its canonical place.
  void Evict(Reg r) {
    if ((held_ & Bit(r)) != 0) bad_ = true;
    for (std::size_t i = 0; i < vs_.size(); ++i) {
      if (vs_[i].kind != Loc::kReg || vs_[i].reg != r) continue;
      const Reg n = AllocReg();
      if (vs_[i].kind == Loc::kReg && vs_[i].reg == r) {
        a.MovRR(n, r);
        vs_[i].reg = n;
      }
      Release(n);
    }
    held_ |= Bit(r);
  }
  // Plain moves only: nothing here may touch the flags (a pending kFlags
  // entry or an in-flight compare may be waiting on them).
  void LoadTo(Reg r, const Loc& l) {
    switch (l.kind) {
      case Loc::kReg:
      case Loc::kHome:
        if (l.reg != r) a.MovRR(r, l.reg);
        break;
      case Loc::kMem:
        a.Load64(r, l.reg, l.disp);
        break;
      case Loc::kImm:
        a.MovImmAuto(r, l.imm);
        break;
      case Loc::kFlags:
        bad_ = true;
        break;
    }
  }
  // The value in a register the caller may clobber once its exits are
  // emitted: the entry's own temporary, else a loaded (or, for a home,
  // copied) one.
  Reg RegFor(const Loc& l) {
    if (l.kind == Loc::kReg) return l.reg;
    const Reg r = AllocReg();
    LoadTo(r, l);
    return r;
  }
  Reg RegOf(std::size_t i) { return RegFor(vs_[i]); }
  // The value in a register the caller only reads: a home serves as is.
  Reg ReadReg(const Loc& l) { return l.kind == Loc::kHome ? l.reg : RegFor(l); }
  // Stores a value into [base + disp] (a slot, local, global, or field).
  void StoreLoc(Reg base, std::int32_t disp, const Loc& v) {
    if (v.InRegister()) {
      a.Store64(base, disp, v.reg);
    } else if (v.FitsImm32()) {
      a.StoreImm32Sx(base, disp, static_cast<std::int32_t>(v.imm));
    } else {
      const Reg t = AllocReg();
      LoadTo(t, v);
      a.Store64(base, disp, t);
      Release(t);
    }
  }
  // Turns a pending comparison into a 0/1 register. setcc and movzx leave
  // the flags alone.
  void MaterializeFlags() {
    if (vs_.empty() || vs_.back().kind != Loc::kFlags) return;
    const Reg r = AllocReg();
    a.Setcc(static_cast<Cc>(vs_.back().imm), r);
    a.MovzxR32R8(r, r);
    vs_.back() = Loc::InReg(r);
    Release(r);
  }
  // About to write `cell` (a memory cell or a home register): entries still
  // reading the old value there take it into a register first. `self` is
  // the operand slot being written, if any; another operand slot sitting in
  // the same home would mean two live slots share a register.
  void Invalidate(const Loc& cell, std::size_t self = SIZE_MAX) {
    for (std::size_t i = 0; i < vs_.size(); ++i) {
      if (!SameLoc(vs_[i], cell)) continue;
      if (OwnSlot(i)) {
        if (cell.kind == Loc::kHome && i != self) bad_ = true;
        continue;
      }
      const Reg r = AllocReg();
      LoadTo(r, cell);
      vs_[i] = Loc::InReg(r);
      Release(r);
    }
  }
  // cell <- v, moves only.
  void WriteCell(const Loc& cell, const Loc& v, std::size_t self = SIZE_MAX) {
    if (SameLoc(cell, v)) return;
    const bool hold = v.kind == Loc::kReg && (held_ & Bit(v.reg)) == 0;
    if (hold) held_ |= Bit(v.reg);  // keep it out of Invalidate's hands
    Invalidate(cell, self);
    if (cell.kind == Loc::kHome) {
      LoadTo(cell.reg, v);
    } else {
      StoreLoc(cell.reg, cell.disp, v);
    }
    if (hold) Release(v.reg);
  }
  void WriteCanon(std::size_t i) {
    const Loc v = vs_[i];
    const Loc c = Canon(i);
    WriteCell(c, v, i);
    vs_[i] = c;
  }
  // Moves entries [from, to) to their canonical places: registers first,
  // which frees them as temporaries for the constants and copies.
  void Flush(std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) {
      if (vs_[i].kind == Loc::kFlags) bad_ = true;  // only the top holds flags
      if (vs_[i].kind == Loc::kReg) WriteCanon(i);
    }
    for (std::size_t i = from; i < to; ++i) {
      if (!OwnSlot(i)) WriteCanon(i);
    }
  }
  void FlushAll() {
    MaterializeFlags();
    Flush(0, vs_.size());
  }
  // Every entry not already in its memory slot: what an exit stub stores.
  Pending PendingEntries() {
    Pending p;
    for (std::size_t i = 0; i < vs_.size(); ++i) {
      if (InMemSlot(i)) continue;
      if (vs_[i].kind == Loc::kFlags) bad_ = true;
      p.emplace_back(SlotDisp(i), vs_[i]);
    }
    return p;
  }
  // Local `s` of the function being emitted (a caller operand slot while
  // splicing).
  std::int32_t LocalDisp(std::int64_t s) const {
    return inl_local_base_ >= 0 ? SlotDisp(static_cast<std::size_t>(inl_local_base_ + s))
                                : static_cast<std::int32_t>(8 * s);
  }
  Loc LocalCell(std::int64_t s) const { return Cell(LocalDisp(s)); }
  // When the instruction at `pc` stores its result straight into a homed
  // local (pc + 1 is a store.local, or a store+load, in the same block: no
  // charge, exit, or denied op in between), the home it may compute into:
  // no entry below the instruction's inputs (`from`) reads the home, and no
  // slot that shares it is live here. -1 otherwise.
  int StoreTarget(std::size_t pc, std::size_t from) const {
    const auto& code = inl_fn_ != nullptr ? inl_fn_->code : fn.code;
    if (pc + 1 >= code.size() || CurFlow().leader[pc + 1]) return -1;
    const Insn& next = code[pc + 1];
    if ((next.op != Op::kStoreLocal && next.op != Op::kStoreLoad) ||
        (opts.jit_compile_filter && !opts.jit_compile_filter(next.op))) {
      return -1;
    }
    const Loc cell =
        LocalCell(next.op == Op::kStoreLocal ? next.operand : SlotPairA(next.operand));
    if (cell.kind != Loc::kHome || Referenced(cell, SIZE_MAX, from)) return -1;
    for (std::size_t k = 0; k < home_.size(); ++k) {
      if (home_[k] == cell.reg && (LiveIn(cur_node_, k) || LiveOut(cur_node_, k))) return -1;
    }
    return cell.reg;
  }
  // locals[s] <- v. A spliced callee's local is an operand slot whose own
  // entry stays in place: the write updates it.
  void WriteLocal(std::int64_t s, const Loc& v) {
    const std::int32_t disp = LocalDisp(s);
    const std::size_t self =
        disp >= SlotDisp(0) ? static_cast<std::size_t>(disp - SlotDisp(0)) / 8 : SIZE_MAX;
    WriteCell(Cell(disp), v, self);
  }

  // --- leaf inlining (kCall) -----------------------------------------------
  //
  // A short leaf callee is spliced into the caller: its locals and operand
  // stack land exactly where its frame would have lived (local i -> caller
  // operand slot inl_local_base_ + i, operand j -> slot inl_op_bias_ + j),
  // so the templates and the deferred stack work unchanged in caller
  // coordinates. The interpreter-identical depth, capacity, and
  // stack-overflow checks are evaluated once per activation (see
  // EmitSpliceLimitFlag), and no frame is written on the hot path: an exit
  // raised inside the spliced region jumps to a stub that materializes the
  // callee frame (and the caller's resume pc) before deopting, so the
  // interpreter picks up at the exact callee instruction with the state a
  // real call would have produced.
  const FunctionCode* inl_fn_ = nullptr;  // non-null while splicing a callee
  Flow inl_flow_{};
  std::vector<std::int64_t> inl_off_{};   // callee pc -> native offset
  std::vector<Fix> inl_fixes_{};          // intra-splice branches; target == n means "after the splice"
  int inl_local_base_ = -1;
  int inl_op_bias_ = 0;
  std::int32_t inl_kk_ = 0;
  std::int32_t inl_ret_pc_ = 0;
  static constexpr std::size_t kInlineMaxInsns = 48;
  // Splice sites found before emission, so the prologue can fold their
  // limit checks into one flag, and the lowest frame->base limit among them.
  std::vector<char> splice_site_{};
  std::int64_t splice_base_limit_ = INT32_MAX;
  // A splice site's out-of-line limit checks, emitted after the epilogue
  // with the operand stack as it stood at the site.
  struct ColdCheck {
    std::size_t jne_at;
    std::size_t resume;
    std::size_t pc;
    std::int64_t base_limit;
    std::vector<Loc> vs;
    int node;
  };
  std::vector<ColdCheck> colds_{};

  // Ops the splicer accepts: templates that touch only locals, globals, and
  // the operand stack, plus intra-function control flow and kRet/kRetVoid.
  // Exit-raising ops (division) are fine — their stubs materialize the
  // frame. Helper calls (allocation, calls, hosts) and object accesses stay
  // out.
  static bool InlinableOp(Op op) {
    switch (op) {
      case Op::kNop: case Op::kPop: case Op::kConstInt: case Op::kConstNull:
      case Op::kLoadLocal: case Op::kStoreLocal: case Op::kLoadGlobal:
      case Op::kStoreGlobal: case Op::kDup:
      case Op::kAddI: case Op::kSubI: case Op::kMulI: case Op::kAndI:
      case Op::kOrI: case Op::kXorI: case Op::kShlI: case Op::kShrI:
      case Op::kNegI: case Op::kNotI:
      case Op::kDivI: case Op::kModI: case Op::kDivNZ: case Op::kModNZ:
      case Op::kAddU: case Op::kSubU: case Op::kMulU: case Op::kShlU:
      case Op::kShrU: case Op::kNotU: case Op::kNotB:
      case Op::kDivU: case Op::kModU:
      case Op::kCastU32: case Op::kCastByte:
      case Op::kEqI: case Op::kNeI: case Op::kLtI: case Op::kLeI:
      case Op::kGtI: case Op::kGeI: case Op::kLtU: case Op::kLeU:
      case Op::kGtU: case Op::kGeU: case Op::kEqRef: case Op::kNeRef:
      case Op::kJmp: case Op::kJmpIfFalse: case Op::kJmpIfTrue:
      case Op::kBrEqI: case Op::kBrNeI: case Op::kBrLtI: case Op::kBrLeI:
      case Op::kBrGtI: case Op::kBrGeI: case Op::kBrEqRef: case Op::kBrNeRef:
      case Op::kBrEqImmI: case Op::kBrNeImmI: case Op::kBrLtImmI:
      case Op::kBrLeImmI: case Op::kBrGtImmI: case Op::kBrGeImmI:
      case Op::kRet: case Op::kRetVoid:
      case Op::kLoadAddI: case Op::kAddConstI: case Op::kConstStore:
      case Op::kLoadLocal2: case Op::kLoadConstI: case Op::kMoveLocal:
      case Op::kStoreLoad: case Op::kLoadGlobalLocal:
        return true;
      default:
        return false;
    }
  }

  // --- analysis ------------------------------------------------------------
  // Depths, leaders, jump targets, and blocks of `f`. With `splice` set it
  // also enforces the splice whitelist: every reachable insn inlinable (and
  // not denied by the fuzzer's compile filter — those must keep their
  // forced-deopt seam) and kRet/kRetVoid the only terminals.
  bool BuildFlow(const FunctionCode& f, Flow& fl, bool splice) const {
    const std::size_t n = f.code.size();
    if (n == 0 || (splice && n > kInlineMaxInsns)) return false;
    fl.depth.assign(n, -1);
    fl.leader.assign(n, 0);
    fl.target.assign(n, 0);
    std::vector<std::size_t> work;
    fl.depth[0] = 0;
    work.push_back(0);
    const auto propagate = [&](std::size_t q, int dq) {
      if (q >= n) return false;
      if (fl.depth[q] == -1) {
        fl.depth[q] = dq;
        work.push_back(q);
        return true;
      }
      return fl.depth[q] == dq;
    };
    while (!work.empty()) {
      const std::size_t pc = work.back();
      work.pop_back();
      const Insn& insn = f.code[pc];
      if (splice && !InlinableOp(insn.op)) return false;
      if (splice && opts.jit_compile_filter && !opts.jit_compile_filter(insn.op)) return false;
      StackShape e;
      if (!ResolveShape(program, insn, e)) return false;
      if (splice && InfoOf(insn.op).control == Control::kTrap) return false;
      const int d = fl.depth[pc];
      if (d < e.pops) return false;
      const int d2 = d - e.pops + e.pushes;
      if (d2 > f.max_stack || d2 > kMaxStack) return false;
      if (HasTarget(insn.op) && !propagate(TargetOf(insn), d - e.pops)) return false;
      if (FallsThrough(insn.op) && !propagate(pc + 1, d2)) return false;
    }
    // Leaders: entry, branch targets, and the instruction after any ender.
    fl.leader[0] = 1;
    for (std::size_t pc = 0; pc < n; ++pc) {
      if (fl.depth[pc] < 0) continue;
      const Insn& insn = f.code[pc];
      if (EndsBlock(insn.op) && pc + 1 < n) fl.leader[pc + 1] = 1;
      if (HasTarget(insn.op)) fl.leader[TargetOf(insn)] = fl.target[TargetOf(insn)] = 1;
    }
    // Blocks: from each leader to its first ender (or the next leader, when
    // control falls through into one).
    fl.blk_leader.assign(n, -1);
    fl.blk_len.assign(n, 0);
    int lp = -1;
    for (std::size_t pc = 0; pc < n; ++pc) {
      if (fl.depth[pc] < 0) {
        lp = -1;
        continue;
      }
      if (fl.leader[pc]) lp = static_cast<int>(pc);
      if (lp < 0) return false;  // reachable code without a leader: impossible
      fl.blk_leader[pc] = lp;
      fl.blk_len[lp] = static_cast<int>(pc) - lp + 1;
      if (EndsBlock(f.code[pc].op)) lp = -1;
    }
    return true;
  }

  // kCall at caller depth `d`: the callee frame's offset from ours, and the
  // largest caller frame->base for which PushFrame's stack check passes.
  // False when a capacity does not fold into an imm32 compare.
  bool CallGeometry(const FunctionCode& callee, int d, std::int64_t& kk,
                    std::int64_t& base_limit) const {
    kk = static_cast<std::int64_t>(fn.num_locals) + d - callee.num_params;
    base_limit = static_cast<std::int64_t>(stack_slots) -
                 (static_cast<std::int64_t>(callee.num_locals) + callee.max_stack) - kk;
    return base_limit >= 0 && base_limit <= INT32_MAX && frame_capacity <= INT32_MAX &&
           opts.max_call_depth <= INT32_MAX;
  }

  // Marks the kCall sites that will be spliced and the strictest base limit
  // among them, before any code is emitted.
  void PlanSplices() {
    splice_site_.assign(fn.code.size(), 0);
    for (std::size_t pc = 0; pc < fn.code.size(); ++pc) {
      const Insn& insn = fn.code[pc];
      if (flow.depth[pc] < 0 || insn.op != Op::kCall) continue;
      if (opts.jit_compile_filter && !opts.jit_compile_filter(insn.op)) continue;
      const auto& callee = program.functions[static_cast<std::size_t>(insn.operand)];
      std::int64_t kk = 0;
      std::int64_t limit = 0;
      Flow scratch;
      if (CallGeometry(callee, flow.depth[pc], kk, limit) && BuildFlow(callee, scratch, true)) {
        splice_site_[pc] = 1;
        splice_base_limit_ = std::min(splice_base_limit_, limit);
      }
    }
  }

  // --- register homes --------------------------------------------------------
  //
  // Slot k is the frame slot at [r13 + 8k]: locals, then operand slots (a
  // spliced callee's locals and operands are caller operand slots too). The
  // hottest slots get a home register for the whole function, so the join
  // invariant is "every homed slot is in its home, every other slot is in
  // memory", and every incoming edge agrees by construction. The analysis
  // runs over one node per instruction in emission order — the caller's
  // pcs, a splice site's node followed by one node per callee pc — with
  // the block graph's edges.
  struct Node {
    std::vector<std::int32_t> use, def;  // slots read / written
    std::vector<int> succ;
    bool join = false;  // a jump target: operands arrive in their canonical places
    int nest = 0;       // static loop depth
  };
  std::vector<int> pc_node_{};  // caller pc -> node (a splice site's entry node)
  std::size_t words_ = 0;       // bitset words per node
  std::vector<std::uint64_t> live_in_{};
  std::vector<std::uint64_t> live_out_{};
  std::vector<std::int8_t> home_{};  // slot -> home register, -1 = memory
  std::uint32_t home_mask_ = 0;
  int cur_node_ = 0;  // the node being emitted

  static constexpr std::size_t kMaxHomedSlots = 1024;  // larger frames stay in memory

  bool LiveIn(int node, std::size_t k) const {
    return k < 64 * words_ &&
           ((live_in_[static_cast<std::size_t>(node) * words_ + k / 64] >> (k % 64)) & 1) != 0;
  }
  bool LiveOut(int node, std::size_t k) const {
    return k < 64 * words_ &&
           ((live_out_[static_cast<std::size_t>(node) * words_ + k / 64] >> (k % 64)) & 1) != 0;
  }

  // The slots `insn` reads and writes at operand depth `d`, with local s at
  // slot lbase + s and operand j at slot obase + j. Local accesses add the
  // node's weight to the slot's rank.
  void SlotEffects(Node& nd, const Insn& insn, int d, int lbase, int obase, std::uint64_t w,
                   std::vector<std::uint64_t>& weight) const {
    StackShape e;
    ResolveShape(program, insn, e);
    const auto local = [&](std::vector<std::int32_t>& to, std::int64_t s) {
      const auto k = static_cast<std::size_t>(lbase + s);
      to.push_back(static_cast<std::int32_t>(k));
      if (weight.size() <= k) weight.resize(k + 1, 0);
      weight[k] += w;
    };
    for (int j = d - e.pops; j < d; ++j) nd.use.push_back(obase + j);
    switch (insn.op) {
      case Op::kLoadLocal:
      case Op::kLoadAddI:
        local(nd.use, insn.operand);
        break;
      case Op::kStoreLocal:
        local(nd.def, insn.operand);
        break;
      case Op::kConstStore:
        local(nd.def, ConstStoreSlot(insn.operand));
        break;
      case Op::kLoadConstI:
        local(nd.use, ConstStoreSlot(insn.operand));
        break;
      case Op::kLoadLocal2:
        local(nd.use, SlotPairA(insn.operand));
        local(nd.use, SlotPairB(insn.operand));
        break;
      case Op::kMoveLocal:
        local(nd.use, SlotPairA(insn.operand));
        local(nd.def, SlotPairB(insn.operand));
        break;
      case Op::kStoreLoad:  // store a, then load b: b == a reads the stored value
        local(nd.def, SlotPairA(insn.operand));
        if (SlotPairB(insn.operand) != SlotPairA(insn.operand)) {
          local(nd.use, SlotPairB(insn.operand));
        }
        break;
      case Op::kLoadGlobalLocal:
        local(nd.use, SlotPairB(insn.operand));
        break;
      default:
        break;
    }
    for (int j = d - e.pops; j < d - e.pops + e.pushes; ++j) nd.def.push_back(obase + j);
    // Operands left below a return are dead, but they still sit in vs_ and
    // a flush may write them: keep them live to the end.
    if (insn.op == Op::kRet || insn.op == Op::kRetVoid || insn.op == Op::kTrap) {
      for (int j = 0; j < d - e.pops; ++j) nd.use.push_back(obase + j);
    }
  }

  // Static loop depth per pc: one level per back edge spanning it.
  std::vector<int> LoopNest(const FunctionCode& f, const Flow& fl) const {
    std::vector<int> nest(f.code.size() + 1, 0);
    for (std::size_t pc = 0; pc < f.code.size(); ++pc) {
      const Insn& insn = f.code[pc];
      if (fl.depth[pc] >= 0 && HasTarget(insn.op) && TargetOf(insn) <= pc) {
        ++nest[TargetOf(insn)];
        --nest[pc + 1];
      }
    }
    for (std::size_t pc = 1; pc < nest.size(); ++pc) nest[pc] += nest[pc - 1];
    return nest;
  }

  // Builds the node graph, runs live-variable analysis, then gives homes
  // by rank. Loop-carried slots come first: without a home they are loaded
  // and stored in every block of every iteration. Within each tier the rank
  // is the use count weighted 8x per loop level, plus, for operand slots,
  // twice the weighted joins the slot is live into (a store and a reload
  // each). Each slot in rank order takes the first home register none of
  // whose slots is live at any node it is live at — so non-overlapping
  // ranges share a register, and a range is never split.
  void PlanHomes() {
    const std::size_t n = fn.code.size();
    const int nl = fn.num_locals;
    pc_node_.assign(n, -1);
    std::size_t count = 0;
    for (std::size_t pc = 0; pc < n; ++pc) {
      pc_node_[pc] = static_cast<int>(count++);
      if (splice_site_[pc]) {
        count += program.functions[static_cast<std::size_t>(fn.code[pc].operand)].code.size();
      }
    }
    std::vector<Node> nodes(count);
    std::vector<std::uint64_t> weight(static_cast<std::size_t>(nl), 0);
    const auto weight_of = [](int nest) { return std::uint64_t{1} << (3 * std::min(nest, 6)); };
    const std::vector<int> nest = LoopNest(fn, flow);
    for (std::size_t pc = 0; pc < n; ++pc) {
      const int d = flow.depth[pc];
      if (d < 0) continue;
      Node& nd = nodes[static_cast<std::size_t>(pc_node_[pc])];
      const Insn& insn = fn.code[pc];
      nd.join = flow.target[pc] != 0;
      nd.nest = nest[pc];
      if (!splice_site_[pc]) {
        SlotEffects(nd, insn, d, 0, nl, weight_of(nd.nest), weight);
        if (FallsThrough(insn.op)) nd.succ.push_back(pc_node_[pc + 1]);
        if (HasTarget(insn.op)) nd.succ.push_back(pc_node_[TargetOf(insn)]);
        continue;
      }
      // Splice site: the args become the callee's params in place, its other
      // locals are nulled, and its returns continue at pc + 1.
      const FunctionCode& callee = program.functions[static_cast<std::size_t>(insn.operand)];
      Flow cf;
      BuildFlow(callee, cf, true);
      const int entry = pc_node_[pc];
      const int lb = d - callee.num_params;
      for (int j = lb; j < d; ++j) nd.use.push_back(nl + j);
      for (int j = d; j < lb + callee.num_locals; ++j) nd.def.push_back(nl + j);
      nd.succ.push_back(entry + 1);
      const std::vector<int> cnest = LoopNest(callee, cf);
      for (std::size_t cpc = 0; cpc < callee.code.size(); ++cpc) {
        const int cd = cf.depth[cpc];
        if (cd < 0) continue;
        Node& cn = nodes[static_cast<std::size_t>(entry + 1) + cpc];
        const Insn& ci = callee.code[cpc];
        cn.join = cf.target[cpc] != 0;
        cn.nest = nd.nest + cnest[cpc];
        SlotEffects(cn, ci, cd, nl + lb, nl + lb + callee.num_locals, weight_of(cn.nest), weight);
        if (ci.op == Op::kRet || ci.op == Op::kRetVoid) {
          if (ci.op == Op::kRet) cn.def.push_back(nl + lb);  // the caller's result slot
          cn.succ.push_back(pc_node_[pc + 1]);
          continue;
        }
        if (FallsThrough(ci.op)) cn.succ.push_back(entry + 1 + static_cast<int>(cpc) + 1);
        if (HasTarget(ci.op)) cn.succ.push_back(entry + 1 + static_cast<int>(TargetOf(ci)));
      }
    }

    // Live-variable analysis over per-node slot bitsets.
    std::size_t nslots = weight.size();
    for (const Node& nd : nodes) {
      for (const std::int32_t k : nd.use) nslots = std::max(nslots, static_cast<std::size_t>(k) + 1);
      for (const std::int32_t k : nd.def) nslots = std::max(nslots, static_cast<std::size_t>(k) + 1);
    }
    home_.assign(nslots, -1);
    if (nslots == 0 || nslots > kMaxHomedSlots) return;
    words_ = (nslots + 63) / 64;
    const std::size_t w = words_;
    std::vector<std::uint64_t> use(count * w, 0);
    std::vector<std::uint64_t> def(count * w, 0);
    const auto set = [](std::uint64_t* bits, std::size_t k) { bits[k / 64] |= std::uint64_t{1} << (k % 64); };
    for (std::size_t i = 0; i < count; ++i) {
      for (const std::int32_t k : nodes[i].use) set(&use[i * w], static_cast<std::size_t>(k));
      for (const std::int32_t k : nodes[i].def) set(&def[i * w], static_cast<std::size_t>(k));
    }
    live_in_.assign(count * w, 0);
    live_out_.assign(count * w, 0);
    for (bool changed = true; changed;) {
      changed = false;
      for (std::size_t i = count; i-- > 0;) {
        for (std::size_t x = 0; x < w; ++x) {
          std::uint64_t out = 0;
          for (const int s : nodes[i].succ) out |= live_in_[static_cast<std::size_t>(s) * w + x];
          const std::uint64_t in = use[i * w + x] | (out & ~def[i * w + x]);
          if (in != live_in_[i * w + x]) changed = true;
          live_out_[i * w + x] = out;
          live_in_[i * w + x] = in;
        }
      }
    }

    // Ranges: the nodes where a slot is live, read, or written.
    weight.resize(nslots, 0);
    const std::size_t rw = (count + 63) / 64;
    std::vector<std::uint64_t> range(nslots * rw, 0);
    for (std::size_t i = 0; i < count; ++i) {
      for (std::size_t x = 0; x < w; ++x) {
        std::uint64_t bits = live_in_[i * w + x] | live_out_[i * w + x] | use[i * w + x] | def[i * w + x];
        while (bits != 0) {
          const std::size_t k = 64 * x + static_cast<std::size_t>(__builtin_ctzll(bits));
          bits &= bits - 1;
          set(&range[k * rw], i);
        }
      }
      if (nodes[i].join) {
        for (std::size_t k = static_cast<std::size_t>(nl); k < nslots; ++k) {
          if (LiveIn(static_cast<int>(i), k)) weight[k] += 2 * weight_of(nodes[i].nest);
        }
      }
    }

    std::vector<std::size_t> order;
    for (std::size_t k = 0; k < nslots; ++k) {
      if (weight[k] > 0) order.push_back(k);
    }
    // Loop-carried slots: live into the target of a back edge.
    std::vector<std::uint64_t> carried(w, 0);
    for (std::size_t i = 0; i < count; ++i) {
      for (const int t : nodes[i].succ) {
        if (static_cast<std::size_t>(t) > i) continue;
        for (std::size_t x = 0; x < w; ++x) carried[x] |= live_in_[static_cast<std::size_t>(t) * w + x];
      }
    }
    const auto tier = [&](std::size_t k) { return ((carried[k / 64] >> (k % 64)) & 1) != 0 ? 0 : 1; };
    std::stable_sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
      return tier(x) != tier(y) ? tier(x) < tier(y) : weight[x] > weight[y];
    });
    std::vector<std::uint64_t> taken(std::size(kHomeRegs) * rw, 0);
    for (const std::size_t k : order) {
      for (std::size_t r = 0; r < std::size(kHomeRegs); ++r) {
        bool overlap = false;
        for (std::size_t x = 0; x < rw && !overlap; ++x) {
          overlap = (range[k * rw + x] & taken[r * rw + x]) != 0;
        }
        if (overlap) continue;
        for (std::size_t x = 0; x < rw; ++x) taken[r * rw + x] |= range[k * rw + x];
        home_[k] = static_cast<std::int8_t>(kHomeRegs[r]);
        home_mask_ |= Bit(kHomeRegs[r]);
        break;
      }
    }
  }

  // The homed slots a helper at the current node may observe: its inputs
  // and everything live across it. They are stored before the helper runs
  // (callees read their args from memory, hosts read theirs, and the
  // collector scans the memory stack for roots) and the caller-saved ones
  // are reloaded after it.
  std::vector<std::size_t> HelperHomes() const {
    std::vector<std::size_t> ks;
    for (std::size_t k = 0; k < home_.size(); ++k) {
      if (home_[k] >= 0 && (LiveIn(cur_node_, k) || LiveOut(cur_node_, k))) ks.push_back(k);
    }
    return ks;
  }
  void StoreHomes(const std::vector<std::size_t>& ks) {
    for (const std::size_t k : ks) {
      a.Store64(LOCALS, static_cast<std::int32_t>(8 * k), static_cast<Reg>(home_[k]));
    }
  }
  void ReloadHomes(const std::vector<std::size_t>& ks) {
    for (const std::size_t k : ks) {
      const auto r = static_cast<Reg>(home_[k]);
      if ((kCalleeSavedHomes & Bit(r)) == 0) a.Load64(r, LOCALS, static_cast<std::int32_t>(8 * k));
    }
  }
  // Homed locals of the function live at the current node: what an exit
  // stub stores besides the operands (which vs_ covers, spliced callee
  // locals included).
  Pending LiveLocalHomes() const {
    Pending p;
    for (std::size_t k = 0; k < home_.size() && k < static_cast<std::size_t>(fn.num_locals); ++k) {
      if (home_[k] >= 0 && LiveIn(cur_node_, k)) {
        p.emplace_back(static_cast<std::int32_t>(8 * k), Loc::Home(static_cast<Reg>(home_[k])));
      }
    }
    return p;
  }

  // --- side exits ----------------------------------------------------------
  // Every exit funnels through here so splice-mode exits pick up the frame
  // to materialize; pc and depth are callee-relative while inl_fn_ is set.
  // Re-execute exits carry the pending operands; exception passthrough
  // exits follow a helper call, which already stored everything.
  void PushExit(std::size_t at, std::size_t pc, int d, std::int64_t give, bool reexec) {
    exits.push_back({at, static_cast<std::uint32_t>(pc), d, give, reexec,
                     reexec ? PendingEntries() : Pending{}, reexec ? LiveLocalHomes() : Pending{},
                     inl_fn_, inl_kk_, inl_ret_pc_});
  }
  const Flow& CurFlow() const { return inl_fn_ != nullptr ? inl_flow_ : flow; }
  void AddExit(std::size_t at, std::size_t pc, bool reexec) {
    const Flow& fl = CurFlow();
    const int lp = fl.blk_leader[pc];
    const std::int64_t e = static_cast<std::int64_t>(pc) - lp;
    const std::int64_t len = fl.blk_len[static_cast<std::size_t>(lp)];
    // The block was charged up front: a re-executed insn and the rest of
    // its block go back; a helper's exception already retired its insn.
    PushExit(at, pc, fl.depth[pc], reexec ? len - e : len - e - 1, reexec);
  }
  // Conditional/unconditional jumps into a deopt-and-reexecute stub: the
  // interpreter resumes at `pc` and re-runs the faulting instruction, so the
  // trap message and unwind path are the interpreter's own.
  void JccExit(Cc cc, std::size_t pc) { AddExit(a.Jcc(cc), pc, true); }
  void JmpExit(std::size_t pc) { AddExit(a.Jmp(), pc, true); }
  // Exception passthrough: a helper already captured the exception and left
  // its status in eax; the stub only fixes the ledgers.
  void JccExcExit(Cc cc, std::size_t pc) { AddExit(a.Jcc(cc), pc, false); }

  // --- branch targets ------------------------------------------------------
  // While splicing, branch targets are callee pcs resolved against the
  // splice's own offset table (a target equal to the callee length means
  // "after the splice" — where kRet lands).
  void JmpPc(std::size_t target) {
    (inl_fn_ != nullptr ? inl_fixes_ : fixes).push_back({a.Jmp(), target});
  }
  void JccPc(Cc cc, std::size_t target) {
    (inl_fn_ != nullptr ? inl_fixes_ : fixes).push_back({a.Jcc(cc), target});
  }

  // r <- frame->base of this activation.
  void LoadFrameBase(Reg r) {
    a.Load64(r, RSP, kFrameOff);
    a.Load64(r, r, F.base);
  }

  // Commits sp_ = frame->base + num_locals + d into the ctx mailbox.
  // Clobbers rax.
  void CommitSp(int d) {
    LoadFrameBase(RAX);
    const std::int32_t add = fn.num_locals + d;
    if (add != 0) a.AluImm(ALU_ADD, RAX, add);
    a.Store64(CTX, L.ctx_sp, RAX);
  }

  // Clobbers rax.
  void SetFramePc(std::size_t pc) {
    a.Load64(RAX, RSP, kFrameOff);
    a.StoreImm32Sx(RAX, F.pc, static_cast<std::int32_t>(pc));
  }

  // Sets the flags for frame->base against `limit` without a free register
  // (push and pop leave the flags alone).
  void CmpFrameBase(std::int64_t limit) {
    a.Push(RAX);
    a.Load64(RAX, RSP, 8 + kFrameOff);
    a.CmpMemImm(RAX, F.base, static_cast<std::int32_t>(limit));
    a.Pop(RAX);
  }

  void CallHelper(const void* helper) {
    a.MovImm64(RAX, reinterpret_cast<std::uint64_t>(helper));
    a.CallR(RAX);
  }

  // --- fuel and the retired ledger -----------------------------------------
  //
  // r15 is the only ledger native code keeps. Each block subtracts its
  // length from r15 and deopts to its first instruction if that went
  // negative (the stub gives the charge back) — the interpreter then meters
  // out the tail insn by insn and throws "fuel exhausted" at the exact
  // instruction an interpreted run would. Unlimited runs carry the bias
  // constant, which no real program can exhaust. Instructions retired are
  // mark - r15, where the mark is r15 when the ledger last synced; they are
  // added to ctx->retired only where someone can read it: the epilogue, and
  // before host calls and kCall (a host reads both ledgers and may SetFuel;
  // a compiled callee meters its own r15). Exit stubs return their
  // overcharge to r15, which corrects both ledgers at once.
  void EmitBlockAccounting(std::size_t lp) {
    const Flow& fl = CurFlow();
    const std::int32_t len = fl.blk_len[lp];
    a.AluImm(ALU_SUB, FUEL, len);
    PushExit(a.Jcc(CC_S), lp, fl.depth[lp], len, true);
  }

  // ctx->retired += mark - r15, then ctx->fuel <- r15 unless unlimited (the
  // stored sentinel stays negative). Clobbers `scratch` and flags.
  void EmitLedgerSync(Reg scratch) {
    a.Load64(scratch, RSP, kMarkOff);
    a.SubRR(scratch, FUEL);
    a.AddMR(CTX, L.ctx_retired, scratch);
    a.Load64(scratch, CTX, L.ctx_fuel);
    a.TestRR(scratch, scratch);
    const std::size_t unlimited = a.Jcc8(CC_S);
    a.Store64(CTX, L.ctx_fuel, FUEL);
    a.PatchRel8(unlimited, a.pos());
  }
  // r15 <- ctx->fuel, biased when unlimited, and a fresh mark. Touches only
  // r15, the mark, and flags, so call sites may run it before testing a
  // helper's status register.
  void EmitLedgerReload() {
    a.Load64(FUEL, CTX, L.ctx_fuel);
    a.TestRR(FUEL, FUEL);
    const std::size_t limited = a.Jcc8(CC_NS);
    a.MovImm64(FUEL, kFuelUnlimitedBias);
    a.PatchRel8(limited, a.pos());
    a.Store64(RSP, kMarkOff, FUEL);
  }

  // The spliced-call limits, once per activation. nframes, entry_frames,
  // and frame->base cannot change while this native frame is live (a
  // callee or reentrant host pops back to them before control returns), so
  // the prologue decides for every splice site at once:
  //   flag 0: depth, capacity, and the strictest site's stack check pass;
  //   flag 1: depth and capacity pass, some site's stack check may fail;
  //   flag 2: depth or capacity fails — every site traps.
  // A site tests the flag and, only when it is set, runs its own checks out
  // of line (EmitColdChecks), so a trap still fires at the exact call pc.
  void EmitSpliceLimitFlag() {
    a.StoreImm32Sx(RSP, kFlagOff, 2);
    a.Load64(RCX, CTX, L.ctx_nframes);
    a.MovRR(RDX, RCX);
    a.AluRMem(0x2B, RDX, CTX, L.ctx_entry_frames, true);  // sub
    a.AluImm(ALU_CMP, RDX, static_cast<std::int32_t>(opts.max_call_depth));
    const std::size_t deep = a.Jcc8(CC_AE);
    a.AluImm(ALU_CMP, RCX, static_cast<std::int32_t>(frame_capacity));
    const std::size_t full = a.Jcc8(CC_E);
    a.StoreImm32Sx(RSP, kFlagOff, 1);
    a.Load64(RAX, RSP, kFrameOff);
    a.CmpMemImm(RAX, F.base, static_cast<std::int32_t>(splice_base_limit_));
    const std::size_t high = a.Jcc8(CC_A);
    a.StoreImm32Sx(RSP, kFlagOff, 0);
    a.PatchRel8(deep, a.pos());
    a.PatchRel8(full, a.pos());
    a.PatchRel8(high, a.pos());
  }

  void EmitColdChecks() {
    for (ColdCheck& c : colds_) {
      a.PatchRel32(c.jne_at, a.pos());
      vs_ = std::move(c.vs);  // exits store the operands as they were at the site
      cur_node_ = c.node;
      a.CmpMemImm(RSP, kFlagOff, 1);
      JccExit(CC_NE, c.pc);  // call depth limit exceeded
      CmpFrameBase(c.base_limit);
      JccExit(CC_A, c.pc);   // VM stack overflow
      a.PatchRel32(a.Jmp(), c.resume);
    }
  }

  void EmitPrologue() {
    a.Push(RBP);
    a.Push(RBX);
    a.Push(R12);
    a.Push(R13);
    a.Push(R14);
    a.Push(R15);
    a.AluImm(ALU_SUB, RSP, kFrameReserve);
    a.MovRR(CTX, RDI);
    a.Load64(GLB, CTX, L.ctx_globals);
    a.Load64(RAX, CTX, L.ctx_nframes);
    a.ImulImm(RAX, RAX, F.size, true);
    a.AluRMem(0x03, RAX, CTX, L.ctx_frames, true);  // add
    a.Lea(RAX, RAX, -F.size);  // &frames[nframes - 1]
    a.Store64(RSP, kFrameOff, RAX);
    a.Load64(RAX, RAX, F.base);
    a.Load64(RCX, CTX, L.ctx_stack);
    a.LeaSib(LOCALS, RCX, RAX, 3, 0);  // r13 = stack + 8*frame->base
    EmitLedgerReload();
    if (std::find(splice_site_.begin(), splice_site_.end(), 1) != splice_site_.end()) {
      EmitSpliceLimitFlag();
    }
    // Params (and any local read before it is written) enter their homes.
    for (std::size_t k = 0; k < home_.size(); ++k) {
      if (home_[k] >= 0 && LiveIn(0, k)) {
        a.Load64(static_cast<Reg>(home_[k]), LOCALS, static_cast<std::int32_t>(8 * k));
      }
    }
  }

  void EmitEpilogue() {
    epilogue_off = a.pos();
    // Every exit funnels through here, so one ledger sync covers them all.
    // rcx is dead on all paths; rax carries the exit status and is preserved.
    EmitLedgerSync(RCX);
    a.AluImm(ALU_ADD, RSP, kFrameReserve);
    a.Pop(R15);
    a.Pop(R14);
    a.Pop(R13);
    a.Pop(R12);
    a.Pop(RBX);
    a.Pop(RBP);
    a.Ret();
  }

  void EmitStubs() {
    for (const Exit& e : exits) {
      a.PatchRel32(e.at, a.pos());
      // Homed locals and pending operands first, while their registers
      // still hold them: registers, then constants and copies through rax.
      for (const auto& [disp, l] : e.homes) {
        a.Store64(LOCALS, disp, l.reg);
      }
      for (const auto& [disp, l] : e.pending) {
        if (l.InRegister()) a.Store64(LOCALS, disp, l.reg);
      }
      for (const auto& [disp, l] : e.pending) {
        if (l.InRegister()) continue;
        if (l.FitsImm32()) {
          a.StoreImm32Sx(LOCALS, disp, static_cast<std::int32_t>(l.imm));
        } else {
          LoadTo(RAX, l);
          a.Store64(LOCALS, disp, RAX);
        }
      }
      if (e.reexec && e.inl_callee != nullptr) {
        // The exit fired inside a spliced callee whose frame was never
        // pushed. Materialize it now — fn/pc/base at frames[nframes], the
        // caller's resume pc, sp inside the callee — so the interpreter
        // resumes at callee pc `e.pc` exactly as if kCall had run. The
        // limit checks already proved frames[nframes] is in bounds, and the
        // splice region makes no calls, so nframes is unchanged.
        a.Load64(R8, RSP, kFrameOff);
        a.Load64(RAX, R8, F.base);
        a.Lea(RDX, RAX, e.inl_kk);  // callee base (slot units)
        a.Load64(RCX, CTX, L.ctx_nframes);
        a.ImulImm(RSI, RCX, F.size, true);
        a.AluRMem(0x03, RSI, CTX, L.ctx_frames, true);  // add
        a.MovImm64(RDI, reinterpret_cast<std::uint64_t>(e.inl_callee));
        a.Store64(RSI, F.fn, RDI);
        a.StoreImm32Sx(RSI, F.pc, static_cast<std::int32_t>(e.pc));
        a.Store64(RSI, F.base, RDX);
        a.Lea(RCX, RCX, 1);
        a.Store64(CTX, L.ctx_nframes, RCX);
        a.StoreImm32Sx(R8, F.pc, e.inl_ret_pc);
        a.Lea(RDX, RDX, e.inl_callee->num_locals + e.depth);
        a.Store64(CTX, L.ctx_sp, RDX);
      } else if (e.reexec) {
        CommitSp(e.depth);
        SetFramePc(e.pc);
      }
      if (e.give > 0) {
        // Adding to the biased constant is harmless on unlimited runs; the
        // epilogue sync drops the register either way.
        a.AluImm(ALU_ADD, FUEL, static_cast<std::int32_t>(e.give));
      }
      if (e.reexec) a.MovImm32(RAX, kJitDeopt);
      epi_fixes.push_back(a.Jmp());
    }
  }

  bool EmitInsn(std::size_t pc);  // jit_emit_x64.inc
  bool EmitSplice(std::size_t pc, const FunctionCode& callee, int d);  // jit_emit_x64.inc

  // Resets the per-insn template state. A pending comparison survives only
  // into the conditional jump that consumes it.
  void BeginInsn(Op op, std::size_t floor) {
    held_ = 0;
    spill_floor_ = floor;
    if (op != Op::kJmpIfFalse && op != Op::kJmpIfTrue) MaterializeFlags();
  }

  // Entering pc `pc` of `fl`: `live` says control falls in from pc - 1.
  // Jump targets start with every operand in its canonical place (their
  // incoming jumps flush), so the fall-through path flushes too; after a
  // terminal the stack is whatever the jumps delivered.
  void EnterPc(const Flow& fl, std::size_t pc, std::size_t base, bool live) {
    const std::size_t d = base + static_cast<std::size_t>(fl.depth[pc]);
    if (!live) {
      ResetStack(d);
    } else if (fl.leader[pc]) {
      held_ = 0;
      spill_floor_ = vs_.size();
      MaterializeFlags();
      if (fl.target[pc]) FlushAll();
    }
  }

  static bool FallsThrough(Op op) {
    return op != Op::kJmp && op != Op::kRet && op != Op::kRetVoid && op != Op::kTrap;
  }

  bool Compile() {
    if (!BuildFlow(fn, flow, false)) return false;
    PlanSplices();
    PlanHomes();
    const std::size_t n = fn.code.size();
    pc_off.assign(n, -1);
    EmitPrologue();
    ResetStack(0);
    bool live = true;
    for (std::size_t pc = 0; pc < n; ++pc) {
      if (flow.depth[pc] < 0) {
        live = false;
        continue;
      }
      cur_node_ = pc_node_[pc];
      EnterPc(flow, pc, 0, live);
      pc_off[pc] = static_cast<std::int64_t>(a.pos());
      if (flow.leader[pc]) EmitBlockAccounting(pc);
      const Op op = fn.code[pc].op;
      if (opts.jit_compile_filter && !opts.jit_compile_filter(op)) {
        // Filter-denied op (the fuzzer's forced-deopt mode): hand the rest
        // of this function to the interpreter right here.
        BeginInsn(Op::kNop, vs_.size());  // stores a pending comparison too
        JmpExit(pc);
        live = false;
        continue;
      }
      if (!EmitInsn(pc) || bad_) return false;
      live = FallsThrough(op);
    }
    EmitEpilogue();
    EmitColdChecks();
    EmitStubs();
    if (bad_) return false;
    for (const auto& fix : fixes) {
      if (pc_off[fix.pc] < 0) return false;
      a.PatchRel32(fix.at, static_cast<std::size_t>(pc_off[fix.pc]));
    }
    for (const std::size_t at : epi_fixes) {
      a.PatchRel32(at, epilogue_off);
    }
    return true;
  }
};

#include "src/minnow/jit_emit_x64.inc"

}  // namespace
}  // namespace

// ---------------------------------------------------------------------------
// Jit::Impl — the load-time driver. A member of Jit, so it sees VM's private
// Frame (Jit is a friend) and the jit's own private state.
// ---------------------------------------------------------------------------

struct Jit::Impl {
  static FrameOffsets ProbeFrame() {
    static const VM::Frame frame{};
    FrameOffsets f{};
    f.fn = OffsetIn(frame, frame.fn);
    f.pc = OffsetIn(frame, frame.pc);
    f.base = OffsetIn(frame, frame.base);
    f.size = static_cast<std::int32_t>(sizeof(VM::Frame));
    return f;
  }

  static std::unique_ptr<Jit> Build(VM& vm) {
    Program& program = vm.program_;
    const VmOptions& opts = vm.options_;
    // Verify-then-compile: native code is emitted only for bytecode that
    // passed the load-time verifier in this exact form (the eBPF contract).
    // VerifyProgram also fills max_stack, which the depth analysis bounds
    // against.
    const VerifyReport report = VerifyProgram(program);
    if (!report.ok) {
      return nullptr;
    }

    std::unique_ptr<Jit> jit(new Jit());
    const std::size_t nfns = program.functions.size();
    jit->compiled_.assign(nfns, false);
    jit->stats_.homed_locals.assign(nfns, 0);
    // Sized once, never resized: kCall sites bake &entries_[i] into code.
    jit->entries_.assign(nfns, nullptr);

    const Layout& layout = ProbeLayout();
    const FrameOffsets frame_off = ProbeFrame();

    // Shared deopt trampoline: an uncompiled callee "returns" kJitDeopt
    // immediately, and the interpreter resumes at its freshly pushed frame.
    Asm tramp;
    tramp.MovImm32(RAX, kJitDeopt);
    tramp.Ret();

    const auto align16 = [](std::size_t n) { return (n + 15) & ~std::size_t{15}; };
    std::size_t total = align16(tramp.code.size());

    struct Unit {
      int fn;
      std::vector<std::uint8_t> code;
    };
    std::vector<Unit> units;
    for (const int fi : CompilationOrder(program)) {
      const FunctionCode& f = program.functions[static_cast<std::size_t>(fi)];
      if (f.code.size() > opts.jit_max_fn_insns) {
        ++jit->stats_.bailouts;
        continue;
      }
      Compiler c{program,
                 f,
                 opts,
                 layout,
                 frame_off,
                 jit->entries_.data(),
                 reinterpret_cast<const void*>(&Jit::HelpPushFrame),
                 reinterpret_cast<const void*>(&Jit::HelpCallHost),
                 reinterpret_cast<const void*>(&Jit::HelpNewStruct),
                 reinterpret_cast<const void*>(&Jit::HelpNewArray),
                 vm.frame_capacity_,
                 vm.stack_slots_};
      if (!c.Compile()) {
        ++jit->stats_.bailouts;
        continue;
      }
      const std::size_t sz = align16(c.a.code.size());
      if (total + sz > opts.jit_arena_max) {
        ++jit->stats_.bailouts;  // arena budget: hottest-first order decides
        continue;
      }
      total += sz;
      std::uint64_t mask = 0;
      for (std::size_t k = 0; k < c.home_.size(); ++k) {
        if (c.home_[k] < 0) continue;
        ++jit->stats_.homed_slots;
        if (k < 64 && k < static_cast<std::size_t>(f.num_locals)) mask |= std::uint64_t{1} << k;
      }
      jit->stats_.homed_locals[static_cast<std::size_t>(fi)] = mask;
      units.push_back({fi, std::move(c.a.code)});
    }
    if (units.empty()) {
      return nullptr;
    }

    // W^X: map writable, stitch, then flip to read+execute for good.
    void* mem = mmap(nullptr, total, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED) {
      return nullptr;
    }
    auto* base = static_cast<std::uint8_t*>(mem);
    std::memcpy(base, tramp.code.data(), tramp.code.size());
    for (std::size_t i = 0; i < nfns; ++i) {
      jit->entries_[i] = base;  // trampoline until proven compiled
    }
    std::size_t off = align16(tramp.code.size());
    for (const Unit& u : units) {
      std::memcpy(base + off, u.code.data(), u.code.size());
      jit->entries_[static_cast<std::size_t>(u.fn)] = base + off;
      jit->compiled_[static_cast<std::size_t>(u.fn)] = true;
      ++jit->stats_.compiled_fns;
      jit->stats_.bytes += u.code.size();
      off += align16(u.code.size());
    }
    // Debugging seam: GRAFTLAB_JIT_DUMP=<path-prefix> writes each unit as a
    // raw code blob (objdump -D -b binary -m i386:x86-64 disassembles it).
    if (const char* dump = std::getenv("GRAFTLAB_JIT_DUMP")) {
      std::size_t doff = align16(tramp.code.size());
      for (const Unit& u : units) {
        const std::string path =
            std::string(dump) + ".fn" + std::to_string(u.fn) + ".bin";
        if (std::FILE* f = std::fopen(path.c_str(), "wb")) {
          std::fwrite(base + doff, 1, u.code.size(), f);
          std::fclose(f);
          std::fprintf(stderr, "jit dump: fn %d (%zu insns, %zu bytes) -> %s\n", u.fn,
                       program.functions[static_cast<std::size_t>(u.fn)].code.size(),
                       u.code.size(), path.c_str());
        }
        doff += align16(u.code.size());
      }
    }
    if (mprotect(mem, total, PROT_READ | PROT_EXEC) != 0) {
      munmap(mem, total);
      return nullptr;
    }
    jit->arena_ = base;
    jit->arena_size_ = total;
    return jit;
  }
};

// ---------------------------------------------------------------------------
// Out-of-line helpers. Called from native code with the SysV ABI; every
// exception is captured here (native frames carry no unwind tables, so C++
// exceptions must never cross them) and rethrown by the runner.
// ---------------------------------------------------------------------------

Jit::HelperResult Jit::HelpNewStruct(JitCtx* ctx, std::uint64_t struct_idx) {
  VM& vm = *ctx->vm;
  vm.sp_ = ctx->sp;  // the conservative root scan reads sp_
  try {
    const auto& layout = vm.program_.structs[struct_idx];
    vm.MaybeCollect(static_cast<std::size_t>(layout.num_fields) * 8 + 64);
    Object* object = vm.heap_.NewStruct(layout, static_cast<int>(struct_idx));
    return {0, reinterpret_cast<std::uint64_t>(object)};
  } catch (...) {
    vm.jit_pending_ = std::current_exception();
    return {kJitException, 0};
  }
}

Jit::HelperResult Jit::HelpNewArray(JitCtx* ctx, std::uint64_t elem,
                                    std::uint64_t length) {
  VM& vm = *ctx->vm;
  vm.sp_ = ctx->sp;
  try {
    vm.MaybeCollect(static_cast<std::size_t>(length) * 8 + 64);
    Object* object =
        vm.heap_.NewArray(static_cast<TypeKind>(elem), static_cast<std::size_t>(length));
    return {0, reinterpret_cast<std::uint64_t>(object)};
  } catch (...) {
    vm.jit_pending_ = std::current_exception();
    return {kJitException, 0};
  }
}

Jit::HelperResult Jit::HelpCallHost(JitCtx* ctx, std::uint64_t import_idx) {
  VM& vm = *ctx->vm;
  const auto& import = vm.program_.host_imports[import_idx];
  const auto& host = vm.hosts_[import_idx];
  if (!host) {
    return {kJitDeopt, 0};  // unbound: deopt so the interpreter throws its trap
  }
  // The ledgers are exact here (kCallHost ends its block), so a host reading
  // fuel()/instructions_retired() — or a reentrant Call — sees interpreter-
  // identical state.
  vm.sp_ = ctx->sp;
  vm.nframes_ = ctx->nframes;
  vm.fuel_ = ctx->fuel;
  vm.instructions_retired_ = ctx->retired;
  try {
    const Value ret =
        host(vm, std::span<const Value>(vm.stack_ + vm.sp_,
                                        static_cast<std::size_t>(import.arity)));
    ctx->fuel = vm.fuel_;  // the host may SetFuel or burn fuel via reentry
    ctx->retired = vm.instructions_retired_;
    return {0, ret.bits};
  } catch (...) {
    vm.jit_pending_ = std::current_exception();
    ctx->fuel = vm.fuel_;
    ctx->retired = vm.instructions_retired_;
    return {kJitException, 0};
  }
}

std::uint64_t Jit::HelpPushFrame(JitCtx* ctx, std::uint64_t fn_idx) {
  VM& vm = *ctx->vm;
  vm.sp_ = ctx->sp;
  vm.nframes_ = ctx->nframes;
  try {
    vm.PushFrame(vm.program_.functions[fn_idx], ctx->entry_frames);
  } catch (...) {
    // PushFrame checks before it mutates, so the re-executed kCall in the
    // interpreter hits the identical trap with identical state.
    return 1;
  }
  ctx->sp = vm.sp_;
  ctx->nframes = vm.nframes_;
  return 0;
}

// ---------------------------------------------------------------------------
// Public surface (x86-64 build).
// ---------------------------------------------------------------------------

bool Jit::Available() { return true; }

std::unique_ptr<Jit> Jit::Compile(VM& vm) { return Impl::Build(vm); }

Jit::~Jit() {
  if (arena_ != nullptr) {
    munmap(arena_, arena_size_);
  }
}

std::uint32_t Jit::Enter(JitCtx& ctx, int fn_index) const {
  using NativeFn = std::uint32_t (*)(JitCtx*);
  const void* entry = entries_[static_cast<std::size_t>(fn_index)];
  return reinterpret_cast<NativeFn>(const_cast<void*>(entry))(&ctx);
}

#else  // !GRAFTLAB_JIT_X64

// ---------------------------------------------------------------------------
// Portable fallback: the header compiles everywhere, Available() reports
// false, and VmOptions::dispatch = kJit falls back to the interpreter.
// ---------------------------------------------------------------------------

bool Jit::Available() { return false; }

std::unique_ptr<Jit> Jit::Compile(VM&) { return nullptr; }

Jit::~Jit() = default;

std::uint32_t Jit::Enter(JitCtx&, int) const { return kJitDeopt; }

Jit::HelperResult Jit::HelpNewStruct(JitCtx*, std::uint64_t) { return {kJitDeopt, 0}; }
Jit::HelperResult Jit::HelpNewArray(JitCtx*, std::uint64_t, std::uint64_t) {
  return {kJitDeopt, 0};
}
Jit::HelperResult Jit::HelpCallHost(JitCtx*, std::uint64_t) { return {kJitDeopt, 0}; }
std::uint64_t Jit::HelpPushFrame(JitCtx*, std::uint64_t) { return 1; }

#endif  // GRAFTLAB_JIT_X64

// ---------------------------------------------------------------------------
// Compilation order (portable; exposed for tests/tools). Hot first: functions
// whose adjacent opcode pairs score high in the PR 3 fusion telemetry, then
// by static back-edge count (loopy code pays for native speed soonest), then
// by index for determinism.
// ---------------------------------------------------------------------------

std::vector<int> Jit::CompilationOrder(const Program& program) {
  struct Rank {
    std::uint64_t back_edges;
    int index;
  };
  std::vector<Rank> ranks;
  ranks.reserve(program.functions.size());
  for (std::size_t i = 0; i < program.functions.size(); ++i) {
    const auto& fn = program.functions[i];
    Rank r{0, static_cast<int>(i)};
    for (std::size_t pc = 0; pc < fn.code.size(); ++pc) {
      if (HasTarget(fn.code[pc].op) && static_cast<std::size_t>(BranchTarget(fn.code[pc])) <= pc) {
        ++r.back_edges;
      }
    }
    ranks.push_back(r);
  }
  std::sort(ranks.begin(), ranks.end(), [](const Rank& a, const Rank& b) {
    if (a.back_edges != b.back_edges) return a.back_edges > b.back_edges;
    return a.index < b.index;
  });
  std::vector<int> order;
  order.reserve(ranks.size());
  for (const Rank& r : ranks) {
    order.push_back(r.index);
  }
  return order;
}

}  // namespace minnow
