// Pipeline coverage for the extension methods (GMP, SNIP) and the
// checkpoint utilities inside real training runs.
#include <gtest/gtest.h>

#include <sstream>

#include "core/experiment.hpp"
#include "nn/checkpoint.hpp"
#include "util/logging.hpp"

namespace ndsnn::core {
namespace {

class QuietLogs2 : public ::testing::Test {
 protected:
  void SetUp() override { util::set_log_level(util::LogLevel::kWarn); }
};

ExperimentConfig small_config(const char* method) {
  ExperimentConfig c;
  c.arch = "lenet5";
  c.dataset = "cifar10";
  c.method = method;
  c.sparsity = 0.8;
  c.epochs = 4;
  c.train_samples = 128;
  c.test_samples = 64;
  c.model_scale = 0.5;
  c.data_scale = 0.25;
  c.timesteps = 2;
  return c;
}

using MethodsPipelineTest = QuietLogs2;

TEST_F(MethodsPipelineTest, GmpReachesTargetThroughTrainer) {
  const TrainResult r = run_experiment(small_config("gmp"));
  EXPECT_NEAR(r.final_sparsity, 0.8, 0.03);
  // GMP sparsity is monotone within the run.
  for (std::size_t i = 1; i < r.epochs.size(); ++i) {
    EXPECT_GE(r.epochs[i].sparsity, r.epochs[i - 1].sparsity - 1e-9);
  }
}

TEST_F(MethodsPipelineTest, SnipPrunesImmediately) {
  const TrainResult r = run_experiment(small_config("snip"));
  // SNIP prunes on the very first step: epoch 0 already at target.
  EXPECT_NEAR(r.epochs.front().sparsity, 0.8, 0.03);
  EXPECT_NEAR(r.final_sparsity, 0.8, 0.03);
}

TEST_F(MethodsPipelineTest, CheckpointAfterSparseTrainingRoundTrips) {
  auto cfg = small_config("ndsnn");
  Experiment exp = build_experiment(cfg);
  Trainer trainer(*exp.network, *exp.method, *exp.train_set, *exp.test_set, exp.trainer);
  (void)trainer.run();

  std::stringstream buf;
  nn::save_checkpoint(buf, *exp.network);

  Experiment fresh = build_experiment(cfg);
  nn::load_checkpoint(buf, *fresh.network);
  // The reloaded network preserves both values and the sparse pattern.
  const auto pa = exp.network->params();
  const auto pb = fresh.network->params();
  for (std::size_t p = 0; p < pa.size(); ++p) {
    ASSERT_EQ(pa[p].value->count_zeros(), pb[p].value->count_zeros()) << pa[p].name;
  }
}

}  // namespace
}  // namespace ndsnn::core
