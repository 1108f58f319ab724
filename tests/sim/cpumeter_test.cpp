#include "net/cpumeter.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace whisper::net {
namespace {

TEST(CpuMeter, ChargeAccumulatesPerCategory) {
  CpuMeter meter;
  meter.charge(CpuCategory::kAes, [] {});
  meter.charge(CpuCategory::kAes, [] {});
  meter.charge(CpuCategory::kRsaDecrypt, [] {});
  EXPECT_EQ(meter.ops(CpuCategory::kAes), 2u);
  EXPECT_EQ(meter.ops(CpuCategory::kRsaDecrypt), 1u);
  EXPECT_EQ(meter.ops(CpuCategory::kRsaEncrypt), 0u);

  // Charges accumulate in nanoseconds: 1,000 empty charges cost about 1,000
  // clock reads, well under the 1,000 us that per-op rounding up to whole
  // microseconds would book. Best of a few batches, so one preemption
  // inside a batch cannot fail the check.
  Time best = ~Time{0};
  for (int batch = 0; batch < 5; ++batch) {
    CpuMeter empty;
    for (int i = 0; i < 1000; ++i) empty.charge(CpuCategory::kAes, [] {});
    best = std::min(best, empty.spent(CpuCategory::kAes));
  }
  EXPECT_LT(best, 500u);
}

TEST(CpuMeter, ChargeReturnsPositiveTime) {
  CpuMeter meter;
  const Time t = meter.charge(CpuCategory::kRsaSign, [] {});
  EXPECT_GE(t, 1u);
}

TEST(CpuMeter, MeasuresRealWork) {
  CpuMeter meter;
  // A busy loop of ~1 ms must register clearly above the 1 us floor.
  const Time t = meter.charge(CpuCategory::kRsaEncrypt, [] {
    volatile std::uint64_t acc = 0;
    for (int i = 0; i < 2'000'000; ++i) acc += static_cast<std::uint64_t>(i);
  });
  EXPECT_GT(t, 100u);
}

TEST(CpuMeter, TotalSumsCategories) {
  CpuMeter meter;
  meter.charge(CpuCategory::kAes, [] {});
  meter.charge(CpuCategory::kRsaDecrypt, [] {});
  EXPECT_EQ(meter.total(),
            meter.spent(CpuCategory::kAes) + meter.spent(CpuCategory::kRsaDecrypt));
}

TEST(CpuMeter, ResetClears) {
  CpuMeter meter;
  meter.charge(CpuCategory::kAes, [] {});
  meter.reset();
  EXPECT_EQ(meter.total(), 0u);
  EXPECT_EQ(meter.ops(CpuCategory::kAes), 0u);
}

}  // namespace
}  // namespace whisper::net
