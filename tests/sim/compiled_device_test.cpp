// PlanModelCache: compiled plans are shared by value key and dropped once
// no compiled device holds them, so a run that replans many times keeps
// only the plans in use.

#include "sim/compiled_device.hpp"

#include <gtest/gtest.h>

#include "core/instance.hpp"
#include "edge/builders.hpp"

namespace scalpel {
namespace {

TEST(PlanModelCache, EvictsPlansNoDeviceHolds) {
  // Two devices with different compute profiles: two distinct plans.
  const ProblemInstance inst(clusters::small_lab());
  DeviceDecision local;
  local.plan.device_only = true;

  PlanModelCache cache;
  CompiledDevice a;
  CompiledDevice b;
  compile_device_decision(inst, 0, local, a, cache);
  compile_device_decision(inst, 2, local, b, cache);
  ASSERT_NE(a.plan, b.plan);
  ASSERT_EQ(cache.size(), 2u);

  cache.evict_unused();  // both still held
  EXPECT_EQ(cache.size(), 2u);

  a = CompiledDevice{};  // device 0's plan loses its only holder
  cache.evict_unused();
  EXPECT_EQ(cache.size(), 1u);

  // The surviving entry is the one b holds: recompiling device 2 hits it.
  CompiledDevice c;
  compile_device_decision(inst, 2, local, c, cache);
  EXPECT_EQ(c.plan, b.plan);
  EXPECT_EQ(cache.size(), 1u);
}

}  // namespace
}  // namespace scalpel
