#include "util/checksum.hpp"

#include <cstring>

namespace embsp::util {

namespace {
constexpr std::uint64_t kOffset = 0xcbf29ce484222325ULL;  // FNV-1a basis
constexpr std::uint64_t kPrime = 0x100000001b3ULL;        // FNV-1a prime
}  // namespace

std::uint64_t checksum64(std::span<const std::byte> data) {
  std::uint64_t h = kOffset ^ (data.size() * kPrime);
  std::size_t i = 0;
  for (; i + 8 <= data.size(); i += 8) {
    std::uint64_t lane;
    std::memcpy(&lane, data.data() + i, 8);
    h = (h ^ mix64(lane)) * kPrime;
  }
  for (; i < data.size(); ++i) {
    h = (h ^ static_cast<std::uint8_t>(data[i])) * kPrime;
  }
  return mix64(h);
}

}  // namespace embsp::util
