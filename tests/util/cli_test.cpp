#include "util/cli.hpp"

#include <gtest/gtest.h>

namespace ndsnn::util {
namespace {

Cli make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Cli(static_cast<int>(argv.size()), argv.data());
}

TEST(CliTest, FlagPresence) {
  const Cli cli = make({"--fast", "--epochs", "5"});
  EXPECT_TRUE(cli.has_flag("--fast"));
  EXPECT_TRUE(cli.has_flag("--epochs"));
  EXPECT_FALSE(cli.has_flag("--slow"));
}

TEST(CliTest, TypedGetters) {
  const Cli cli = make({"--epochs", "12", "--lr", "0.25", "--name", "run1"});
  EXPECT_EQ(cli.get_int("--epochs", 0), 12);
  EXPECT_DOUBLE_EQ(cli.get_double("--lr", 0.0), 0.25);
  EXPECT_EQ(cli.get_string("--name", ""), "run1");
}

TEST(CliTest, FallbacksWhenAbsent) {
  const Cli cli = make({});
  EXPECT_EQ(cli.get_int("--epochs", 7), 7);
  EXPECT_DOUBLE_EQ(cli.get_double("--lr", 0.5), 0.5);
  EXPECT_EQ(cli.get_string("--name", "default"), "default");
}

TEST(CliTest, PositionalArgsCollected) {
  const Cli cli = make({"input.bin", "--epochs", "3", "output.bin"});
  ASSERT_EQ(cli.positional().size(), 2U);
  EXPECT_EQ(cli.positional()[0], "input.bin");
  EXPECT_EQ(cli.positional()[1], "output.bin");
}

TEST(CliTest, RejectUnknownPassesWhenEveryFlagWasAskedFor) {
  const Cli cli = make({"--fast", "--epochs", "5", "input.bin"});
  (void)cli.has_flag("--fast");
  (void)cli.get_int("--epochs", 0);
  (void)cli.get_string("--name", "");  // asked for, absent: fine
  cli.reject_unknown();                // returns
}

TEST(CliTest, RejectUnknownExitsNamingEveryFlagNothingAskedFor) {
  const Cli cli = make({"--epochs", "1", "--kernel-tier", "scalar", "--nm"});
  (void)cli.get_int("--epochs", 0);
  EXPECT_EXIT(cli.reject_unknown(), ::testing::ExitedWithCode(2),
              "unknown flag --kernel-tier\nunknown flag --nm");
}

}  // namespace
}  // namespace ndsnn::util
