#include "util/log.hpp"

#include <gtest/gtest.h>

namespace scalpel {
namespace {

TEST(Log, WarnWritesOneTaggedLineToStderr) {
  ::testing::internal::CaptureStderr();
  log_warn("could not open JSON output file: /no/such/dir/x.json");
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "[scalpel warn] could not open JSON output file: "
            "/no/such/dir/x.json\n");
}

}  // namespace
}  // namespace scalpel
