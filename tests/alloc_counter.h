// Allocation counting for tests that hold code to an allocation budget.
//
// Linking alloc_counter.cpp into a test binary replaces every replaceable
// global operator new and delete (plain, array, aligned, nothrow, sized)
// with malloc/aligned_alloc/free versions that count each allocation and
// the bytes it requests, on every thread. Tests read deltas around the code
// under test:
//
//   const AllocDelta d;
//   run_steady_state();
//   EXPECT_EQ(d.calls(), 0u);
#pragma once

#include <cstdint>

namespace r2c2::test {

// Allocations, and the bytes they requested, since the process started.
std::uint64_t alloc_calls();
std::uint64_t alloc_bytes();

// The allocations made since construction.
class AllocDelta {
 public:
  std::uint64_t calls() const { return alloc_calls() - calls_; }
  std::uint64_t bytes() const { return alloc_bytes() - bytes_; }

 private:
  std::uint64_t calls_ = alloc_calls();
  std::uint64_t bytes_ = alloc_bytes();
};

}  // namespace r2c2::test
