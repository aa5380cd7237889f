// The extension technologies GraftLab compares (paper §4).

#ifndef GRAFTLAB_SRC_CORE_TECHNOLOGY_H_
#define GRAFTLAB_SRC_CORE_TECHNOLOGY_H_

#include <cstdint>
#include <optional>
#include <string_view>

namespace core {

enum class Technology : std::uint8_t {
  kC,            // unsafe compiled C linked into the kernel (baseline)
  kModula3,      // safe compiled language, explicit NIL checks (paper's Linux codegen)
  kModula3Trap,  // safe compiled language, trap-based NIL checks (Solaris/Alpha codegen)
  kSfi,          // software fault isolation, write+jump protection (Omniware beta)
  kSfiFull,      // SFI with read protection too (the paper's "not available today")
  kJava,         // verified bytecode, in-kernel interpreter (Minnow VM)
  kJavaTranslated,  // same bytecode compiled at load time by the JIT ("compiled Java")
  kTcl,          // direct source interpretation (Tclet)
  kUpcall,       // user-level server behind an upcall (hardware protection)
};

inline constexpr Technology kAllTechnologies[] = {
    Technology::kC,       Technology::kModula3, Technology::kModula3Trap,
    Technology::kSfi,     Technology::kSfiFull, Technology::kJava,
    Technology::kJavaTranslated, Technology::kTcl, Technology::kUpcall,
};

constexpr const char* TechnologyName(Technology technology) {
  switch (technology) {
    case Technology::kC: return "C";
    case Technology::kModula3: return "Modula-3";
    case Technology::kModula3Trap: return "Modula-3/trap";
    case Technology::kSfi: return "SFI";
    case Technology::kSfiFull: return "SFI/full";
    case Technology::kJava: return "Java";
    case Technology::kJavaTranslated: return "Java/translated";
    case Technology::kTcl: return "Tcl";
    case Technology::kUpcall: return "Upcall";
  }
  return "?";
}

// Parses a name as printed by TechnologyName (for CLI flags).
std::optional<Technology> ParseTechnology(std::string_view name);

// The subset the paper measured directly (its table columns).
inline constexpr Technology kPaperTechnologies[] = {
    Technology::kC,
    Technology::kJava,
    Technology::kModula3,
    Technology::kSfi,  // "Omniware"
    Technology::kTcl,
};

}  // namespace core

#endif  // GRAFTLAB_SRC_CORE_TECHNOLOGY_H_
