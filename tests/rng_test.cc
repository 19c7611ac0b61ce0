// Pins the generator's output. Every determinism test elsewhere compares
// two runs with each other, which a changed constant would still pass;
// seeded workloads, fault plans and fuzz crash reports need the exact
// sequence to stay the same across versions and platforms.

#include <cstdint>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace rtp {
namespace {

TEST(RngTest, FirstOutputsOfTwoSeeds) {
  Rng zero(0);
  EXPECT_EQ(zero.Next(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(zero.Next(), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(zero.Next(), 0x06c45d188009454fULL);
  Rng answer(42);
  EXPECT_EQ(answer.Next(), 0xbdd732262feb6e95ULL);
  EXPECT_EQ(answer.Next(), 0x28efe333b266f103ULL);
  EXPECT_EQ(answer.Next(), 0x47526757130f9f52ULL);
}

TEST(RngTest, BelowReducesOneDraw) {
  Rng rng(7);
  EXPECT_EQ(rng.Below(1000), 487u);
}

TEST(RngTest, SeedFromBytesIsFnv1a) {
  EXPECT_EQ(Rng::SeedFromBytes(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Rng::SeedFromBytes("rtp"), 0x89b6b01960c950b9ULL);
}

}  // namespace
}  // namespace rtp
