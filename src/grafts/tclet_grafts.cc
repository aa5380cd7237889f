#include "src/grafts/tclet_grafts.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "src/envs/fault.h"

namespace grafts {

namespace {

using tclet::Code;
using tclet::Interp;

constexpr char kEvictionScript[] = R"tcl(
set hotlist {}

proc hot_add {page} {
  global hotlist
  lappend hotlist $page
}

proc hot_remove {page} {
  global hotlist
  set out {}
  foreach p $hotlist {
    if {$p != $page} { lappend out $p }
  }
  set hotlist $out
}

proc hot_clear {} {
  global hotlist
  set hotlist {}
}

proc is_hot {page} {
  global hotlist
  foreach p $hotlist {
    if {$p == $page} { return 1 }
  }
  return 0
}

proc choose {candidate} {
  if {[is_hot $candidate] == 0} { return 0 }
  set pos 1
  while {1} {
    set page [lru_page $pos]
    if {$page < 0} { return 0 }
    if {[is_hot $page] == 0} { return $pos }
    incr pos
  }
}
)tcl";

// The MD5 rounds in Tcl. The state lives in the array state(0..3), the
// decoded message words in x(0..15), constants in T(i)/S(i). in_byte is the
// host command delivering the current 64-byte block.
constexpr char kMd5Script[] = R"tcl(
proc md5_init {} {
  global state
  set state(0) 1732584193
  set state(1) 4023233417
  set state(2) 2562383102
  set state(3) 271733878
}

proc rotl {v n} {
  return [expr {(($v << $n) | ($v >> (32 - $n))) & 0xffffffff}]
}

proc md5_block {} {
  global state x T S
  for {set k 0} {$k < 16} {incr k} {
    set b0 [in_byte [expr {$k * 4}]]
    set b1 [in_byte [expr {$k * 4 + 1}]]
    set b2 [in_byte [expr {$k * 4 + 2}]]
    set b3 [in_byte [expr {$k * 4 + 3}]]
    set x($k) [expr {$b0 | ($b1 << 8) | ($b2 << 16) | ($b3 << 24)}]
  }
  set a $state(0)
  set b $state(1)
  set c $state(2)
  set d $state(3)
  for {set i 0} {$i < 64} {incr i} {
    if {$i < 16} {
      set f [expr {($b & $c) | ((~$b) & $d) & 0xffffffff}]
      set k $i
    } elseif {$i < 32} {
      set f [expr {($d & $b) | ((~$d) & $c) & 0xffffffff}]
      set k [expr {(5 * $i + 1) % 16}]
    } elseif {$i < 48} {
      set f [expr {$b ^ $c ^ $d}]
      set k [expr {(3 * $i + 5) % 16}]
    } else {
      set f [expr {$c ^ ($b | ((~$d) & 0xffffffff))}]
      set k [expr {(7 * $i) % 16}]
    }
    set f [expr {$f & 0xffffffff}]
    set tmp $d
    set d $c
    set c $b
    set sum [expr {($a + $f + $x($k) + $T($i)) & 0xffffffff}]
    set b [expr {($b + [rotl $sum $S($i)]) & 0xffffffff}]
    set a $tmp
  }
  set state(0) [expr {($state(0) + $a) & 0xffffffff}]
  set state(1) [expr {($state(1) + $b) & 0xffffffff}]
  set state(2) [expr {($state(2) + $c) & 0xffffffff}]
  set state(3) [expr {($state(3) + $d) & 0xffffffff}]
}

proc md5_digest {} {
  global state
  set out {}
  for {set i 0} {$i < 4} {incr i} {
    set s $state($i)
    lappend out [expr {$s & 0xff}]
    lappend out [expr {($s >> 8) & 0xff}]
    lappend out [expr {($s >> 16) & 0xff}]
    lappend out [expr {($s >> 24) & 0xff}]
  }
  return $out
}
)tcl";

constexpr char kLogicalDiskScript[] = R"tcl(
set next_phys 0
set nblocks 0
set segsize 16

proc ld_init {n seg} {
  global next_phys nblocks segsize map rev segliv
  set nblocks $n
  set segsize $seg
  set next_phys 0
  for {set i 0} {$i < $n} {incr i} {
    set map($i) -1
    set rev($i) -1
  }
  set nseg [expr {$n / $seg}]
  for {set s 0} {$s < $nseg} {incr s} { set segliv($s) 0 }
}

proc ld_write {lb} {
  global next_phys nblocks segsize map rev segliv
  if {$next_phys >= $nblocks} { return -1 }
  set old $map($lb)
  if {$old >= 0} {
    set rev($old) -1
    set oseg [expr {$old / $segsize}]
    set segliv($oseg) [expr {$segliv($oseg) - 1}]
  }
  set p $next_phys
  incr next_phys
  set map($lb) $p
  set rev($p) $lb
  set nseg [expr {$p / $segsize}]
  set segliv($nseg) [expr {$segliv($nseg) + 1}]
  return $p
}

proc ld_translate {lb} {
  global map
  return $map($lb)
}
)tcl";

std::int64_t ResultInt(Interp& interp) {
  std::int64_t value = 0;
  if (!tclet::ParseInt(interp.result(), value)) {
    throw std::runtime_error("tclet graft returned non-integer: " + interp.result());
  }
  return value;
}

// An exhausted command budget is a preemption, raised as the same
// PreemptFault a compiled graft's token poll raises.
void EvalOrThrow(Interp& interp, const std::string& script) {
  if (interp.Eval(script) == Code::kError) {
    if (interp.fuel() == 0) {
      throw envs::PreemptFault();
    }
    throw std::runtime_error("tclet graft error: " + interp.result());
  }
}

}  // namespace

const char* TcletEvictionSource() { return kEvictionScript; }
const char* TcletMd5Source() { return kMd5Script; }
const char* TcletLogicalDiskSource() { return kLogicalDiskScript; }

// --- TcletEvictionGraft ---

TcletEvictionGraft::TcletEvictionGraft() {
  interp_.RegisterCommand(
      "lru_page", [this](Interp& interp, const std::vector<std::string>& argv) {
        if (argv.size() != 2) {
          return interp.Error("usage: lru_page pos");
        }
        std::int64_t pos = 0;
        if (!tclet::ParseInt(argv[1], pos)) {
          return interp.Error("bad position");
        }
        if (walk_cursor_ == nullptr || pos <= walk_pos_) {
          walk_cursor_ = walk_head_;
          walk_pos_ = 0;
        }
        while (walk_cursor_ != nullptr && walk_pos_ < pos) {
          walk_cursor_ = walk_cursor_->lru_next;
          ++walk_pos_;
        }
        interp.set_result(tclet::IntToString(
            walk_cursor_ == nullptr ? -1 : static_cast<std::int64_t>(walk_cursor_->page)));
        return Code::kOk;
      });
  EvalOrThrow(interp_, kEvictionScript);
}

vmsim::Frame* TcletEvictionGraft::ChooseVictim(vmsim::Frame* lru_head) {
  walk_head_ = lru_head;
  walk_cursor_ = lru_head;
  walk_pos_ = 0;
  EvalOrThrow(interp_,
              "choose " + tclet::IntToString(static_cast<std::int64_t>(lru_head->page)));
  const std::int64_t pos = ResultInt(interp_);
  vmsim::Frame* frame = lru_head;
  for (std::int64_t i = 0; i < pos && frame != nullptr; ++i) {
    frame = frame->lru_next;
  }
  return frame != nullptr ? frame : lru_head;
}

void TcletEvictionGraft::HotListAdd(vmsim::PageId page) {
  EvalOrThrow(interp_, "hot_add " + tclet::IntToString(static_cast<std::int64_t>(page)));
}

void TcletEvictionGraft::HotListRemove(vmsim::PageId page) {
  EvalOrThrow(interp_, "hot_remove " + tclet::IntToString(static_cast<std::int64_t>(page)));
}

void TcletEvictionGraft::HotListClear() { EvalOrThrow(interp_, "hot_clear"); }

// --- TcletMd5Graft ---

TcletMd5Graft::TcletMd5Graft() {
  interp_.RegisterCommand("in_byte",
                          [this](Interp& interp, const std::vector<std::string>& argv) {
                            if (argv.size() != 2 || current_block_ == nullptr) {
                              return interp.Error("in_byte: no block");
                            }
                            std::int64_t index = 0;
                            if (!tclet::ParseInt(argv[1], index) || index < 0 || index >= 64) {
                              return interp.Error("in_byte: bad index");
                            }
                            interp.set_result(tclet::IntToString(
                                current_block_[static_cast<std::size_t>(index)]));
                            return Code::kOk;
                          });
  EvalOrThrow(interp_, kMd5Script);

  // Load the constant tables (T from the RFC's sine definition, S shifts).
  static constexpr int kShifts[64] = {
      7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
      5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20,
      4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
      6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21};
  std::string setup;
  for (int i = 0; i < 64; ++i) {
    const auto t = static_cast<std::uint64_t>(
        std::floor(4294967296.0 * std::fabs(std::sin(i + 1.0))));
    setup += "set T(" + std::to_string(i) + ") " + std::to_string(t) + "\n";
    setup += "set S(" + std::to_string(i) + ") " + std::to_string(kShifts[i]) + "\n";
  }
  EvalOrThrow(interp_, setup);
  EvalOrThrow(interp_, "md5_init");
}

void TcletMd5Graft::ProcessBlock(const std::uint8_t block[64]) {
  current_block_ = block;
  EvalOrThrow(interp_, "md5_block");
  current_block_ = nullptr;
}

void TcletMd5Graft::Consume(const std::uint8_t* data, std::size_t len) {
  total_ += len;
  std::size_t offset = 0;
  if (buffered_ > 0) {
    while (buffered_ < 64 && offset < len) {
      buffer_[buffered_++] = data[offset++];
    }
    if (buffered_ == 64) {
      ProcessBlock(buffer_);
      buffered_ = 0;
    }
  }
  while (offset + 64 <= len) {
    ProcessBlock(data + offset);
    offset += 64;
  }
  while (offset < len) {
    buffer_[buffered_++] = data[offset++];
  }
}

md5::Digest TcletMd5Graft::Finish() {
  // RFC padding layout (mechanical byte plumbing; the arithmetic — rounds,
  // state folding, digest extraction — all happens in Tcl).
  const std::uint64_t bits = total_ * 8;
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    while (buffered_ < 64) {
      buffer_[buffered_++] = 0;
    }
    ProcessBlock(buffer_);
    buffered_ = 0;
  }
  while (buffered_ < 56) {
    buffer_[buffered_++] = 0;
  }
  for (std::size_t i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bits >> (8 * i));
  }
  ProcessBlock(buffer_);

  EvalOrThrow(interp_, "md5_digest");
  std::vector<std::string> bytes;
  if (!tclet::SplitList(interp_.result(), bytes) || bytes.size() != 16) {
    throw std::runtime_error("tclet md5: bad digest list");
  }
  md5::Digest digest{};
  for (std::size_t i = 0; i < 16; ++i) {
    std::int64_t value = 0;
    if (!tclet::ParseInt(bytes[i], value)) {
      throw std::runtime_error("tclet md5: bad digest byte");
    }
    digest[i] = static_cast<std::uint8_t>(value);
  }

  buffered_ = 0;
  total_ = 0;
  EvalOrThrow(interp_, "md5_init");
  return digest;
}

// --- TcletLogicalDiskGraft ---

TcletLogicalDiskGraft::TcletLogicalDiskGraft(const ldisk::Geometry& geometry) {
  EvalOrThrow(interp_, kLogicalDiskScript);
  EvalOrThrow(interp_, "ld_init " + std::to_string(geometry.num_blocks) + " " +
                           std::to_string(geometry.blocks_per_segment));
}

ldisk::BlockId TcletLogicalDiskGraft::OnWrite(ldisk::BlockId logical) {
  EvalOrThrow(interp_, "ld_write " + std::to_string(logical));
  const std::int64_t physical = ResultInt(interp_);
  if (physical < 0) {
    throw ldisk::DiskFull();
  }
  return static_cast<ldisk::BlockId>(physical);
}

ldisk::BlockId TcletLogicalDiskGraft::Translate(ldisk::BlockId logical) {
  EvalOrThrow(interp_, "ld_translate " + std::to_string(logical));
  const std::int64_t physical = ResultInt(interp_);
  return physical < 0 ? ldisk::kUnmapped : static_cast<ldisk::BlockId>(physical);
}

}  // namespace grafts
