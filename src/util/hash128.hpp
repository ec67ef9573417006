// A 128-bit FNV-1a hash for content-addressed cache keys.
//
// The result cache addresses entries by the hash of a canonical token
// sequence (see shard/job_key.*), so the hash must be (a) wide enough
// that accidental collisions are out of reach for any realistic sweep
// volume, and (b) a pure function of the bytes fed in — no seeding from
// the environment, no pointer mixing — so two processes (or two builds
// of the same git hash) derive identical keys.  FNV-1a over
// __uint128_t gives both with a few lines and no dependencies; this is
// a *correctness* identifier, not a defense against adversarial
// collisions (cache entries are validated on read regardless).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace diac {

// A 128-bit digest, held as two 64-bit halves so no interface leaks the
// non-standard __uint128_t type.
struct Hash128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  bool operator==(const Hash128&) const = default;
  // Lexicographic (hi, lo) order, so digests can key ordered containers.
  bool operator<(const Hash128& other) const {
    return hi != other.hi ? hi < other.hi : lo < other.lo;
  }
};

// Incremental FNV-1a-128 hasher.  Feed bytes or whole tokens; token
// feeds are length-prefixed so ("ab","c") and ("a","bc") digest
// differently.
class Fnv128 {
 public:
  void update(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      state_ ^= bytes[i];
      state_ *= kPrime;
    }
  }

  // Hashes the token's length, then its bytes (unambiguous framing).
  void update_token(std::string_view token) {
    const std::uint64_t n = token.size();
    update(&n, sizeof(n));
    update(token.data(), token.size());
  }

  Hash128 digest() const {
    return {static_cast<std::uint64_t>(state_ >> 64),
            static_cast<std::uint64_t>(state_)};
  }

 private:
  // FNV-1a 128-bit offset basis and prime.
  static constexpr unsigned __int128 kOffset =
      (static_cast<unsigned __int128>(0x6c62272e07bb0142ULL) << 64) |
      0x62b821756295c58dULL;
  static constexpr unsigned __int128 kPrime =
      (static_cast<unsigned __int128>(0x0000000001000000ULL) << 64) | 0x13bULL;

  unsigned __int128 state_ = kOffset;
};

// Digest of a token sequence (each token length-framed).
inline Hash128 hash_tokens(const std::vector<std::string>& tokens) {
  Fnv128 h;
  for (const std::string& t : tokens) h.update_token(t);
  return h.digest();
}

// "hhhhhhhhhhhhhhhhllllllllllllllll" — 32 lower-case hex digits; the
// cache's on-disk entry name.
std::string hash_hex(const Hash128& digest);

}  // namespace diac
