#ifndef RTP_COMMON_RNG_H_
#define RTP_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace rtp {

// Deterministic splitmix64 generator, shared by the fuzz generators, the
// workload runner, chaos fault plans and the client's retry jitter. Unlike
// std::mt19937_64 + distributions, every draw is fully specified here, so
// a (seed, params) pair reproduces the same generated input on any
// platform and standard library — the property crash reports and seeded
// load runs rely on. tests/rng_test.cc pins the output.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  // Uniform-ish draw in [0, n); n == 0 returns 0.
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }

  // In [lo, hi] inclusive (lo <= hi).
  uint64_t Range(uint64_t lo, uint64_t hi) {
    return lo + Below(hi - lo + 1);
  }

  // True with probability `percent`/100.
  bool Percent(uint64_t percent) { return Below(100) < percent; }

  // FNV-1a over raw bytes: turns a fuzzer-chosen input into a generator
  // seed, so libFuzzer mutations on the bytes walk the seed space.
  static uint64_t SeedFromBytes(const uint8_t* data, size_t size) {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (size_t i = 0; i < size; ++i) {
      h ^= data[i];
      h *= 0x100000001b3ULL;
    }
    return h;
  }
  static uint64_t SeedFromBytes(std::string_view bytes) {
    return SeedFromBytes(reinterpret_cast<const uint8_t*>(bytes.data()),
                         bytes.size());
  }

 private:
  uint64_t state_;
};

}  // namespace rtp

#endif  // RTP_COMMON_RNG_H_
