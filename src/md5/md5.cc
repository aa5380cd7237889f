#include "src/md5/md5.h"

#include <cstring>

namespace md5 {

namespace {

// Per-round shift amounts (RFC 1321 §3.4).
constexpr unsigned kShift[64] = {
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,   // round 1
    5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20,   // round 2
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,   // round 3
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21};  // round 4

// Sine-derived constants: T[i] = floor(2^32 * |sin(i + 1)|).
constexpr std::uint32_t kT[64] = {
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613,
    0xfd469501, 0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193,
    0xa679438e, 0x49b40821, 0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d,
    0x02441453, 0xd8a1e681, 0xe7d3fbc8, 0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed,
    0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a, 0xfffa3942, 0x8771f681, 0x6d9d6122,
    0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, 0x289b7ec6, 0xeaa127fa,
    0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665, 0xf4292244,
    0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb,
    0xeb86d391};

// Message-word index for step i (RFC 1321 §3.4 round orderings).
constexpr std::size_t WordIndex(std::size_t i) {
  if (i < 16) {
    return i;
  }
  if (i < 32) {
    return (5 * i + 1) % 16;
  }
  if (i < 48) {
    return (3 * i + 5) % 16;
  }
  return (7 * i) % 16;
}

constexpr std::uint32_t RotL(std::uint32_t v, unsigned n) { return (v << n) | (v >> (32 - n)); }

}  // namespace

void Context::Reset() {
  state_[0] = 0x67452301;
  state_[1] = 0xefcdab89;
  state_[2] = 0x98badcfe;
  state_[3] = 0x10325476;
  bit_count_ = 0;
  buffered_ = 0;
}

// Pinned to a cache-line boundary, as VM::RunThreaded is: every md5 ratio
// in the paper matrix divides by this loop, so its placement within a
// 64-byte line must not depend on how much code the linker puts before it.
[[gnu::aligned(64)]] void Context::Transform(const std::uint8_t block[64]) {
  std::uint32_t x[16];
  for (std::size_t k = 0; k < 16; ++k) {
    x[k] = static_cast<std::uint32_t>(block[k * 4]) |
           (static_cast<std::uint32_t>(block[k * 4 + 1]) << 8) |
           (static_cast<std::uint32_t>(block[k * 4 + 2]) << 16) |
           (static_cast<std::uint32_t>(block[k * 4 + 3]) << 24);
  }

  std::uint32_t a = state_[0];
  std::uint32_t b = state_[1];
  std::uint32_t c = state_[2];
  std::uint32_t d = state_[3];

  for (std::size_t i = 0; i < 64; ++i) {
    std::uint32_t f;
    if (i < 16) {
      f = (b & c) | (~b & d);
    } else if (i < 32) {
      f = (d & b) | (~d & c);
    } else if (i < 48) {
      f = b ^ c ^ d;
    } else {
      f = c ^ (b | ~d);
    }
    const std::uint32_t temp = d;
    d = c;
    c = b;
    b = b + RotL(a + f + x[WordIndex(i)] + kT[i], kShift[i]);
    a = temp;
  }

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
}

void Context::Update(std::span<const std::uint8_t> data) {
  bit_count_ += static_cast<std::uint64_t>(data.size()) * 8;

  std::size_t offset = 0;
  if (buffered_ > 0) {
    const std::size_t need = 64 - buffered_;
    const std::size_t take = data.size() < need ? data.size() : need;
    std::memcpy(buffer_ + buffered_, data.data(), take);
    buffered_ += take;
    offset = take;
    if (buffered_ == 64) {
      Transform(buffer_);
      buffered_ = 0;
    }
  }
  while (offset + 64 <= data.size()) {
    Transform(data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_, data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

Digest Context::Final() {
  const std::uint64_t bits = bit_count_;

  static constexpr std::uint8_t kPad[64] = {0x80};
  const std::size_t pad_len = (buffered_ < 56) ? (56 - buffered_) : (120 - buffered_);
  Update(std::span<const std::uint8_t>(kPad, pad_len));

  std::uint8_t length_le[8];
  for (std::size_t i = 0; i < 8; ++i) {
    length_le[i] = static_cast<std::uint8_t>(bits >> (8 * i));
  }
  Update(std::span<const std::uint8_t>(length_le, 8));

  Digest digest;
  for (std::size_t i = 0; i < 4; ++i) {
    digest[i * 4] = static_cast<std::uint8_t>(state_[i]);
    digest[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 8);
    digest[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 16);
    digest[i * 4 + 3] = static_cast<std::uint8_t>(state_[i] >> 24);
  }
  return digest;
}

Digest Sum(std::span<const std::uint8_t> data) {
  Context ctx;
  ctx.Update(data);
  return ctx.Final();
}

std::string ToHex(const Digest& digest) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(32);
  for (const std::uint8_t byte : digest) {
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0xF]);
  }
  return out;
}

}  // namespace md5
