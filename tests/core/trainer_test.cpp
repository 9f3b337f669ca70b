#include "core/trainer.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "core/dense_method.hpp"
#include "core/ndsnn_method.hpp"
#include "data/dataloader.hpp"
#include "data/synthetic.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/linear.hpp"
#include "nn/models/zoo.hpp"
#include "nn/neuron_activations.hpp"
#include "snn/encoder.hpp"

namespace ndsnn::core {
namespace {

data::SyntheticSpec tiny_data(int64_t samples = 64) {
  data::SyntheticSpec spec;
  spec.num_classes = 4;
  spec.channels = 1;
  spec.image_size = 8;
  spec.train_size = samples;
  spec.noise_std = 0.15F;
  spec.max_jitter = 1;
  return spec;
}

std::unique_ptr<nn::SpikingNetwork> tiny_model() {
  nn::ModelSpec spec;
  spec.num_classes = 4;
  spec.in_channels = 1;
  spec.image_size = 8;
  spec.timesteps = 2;
  spec.width_scale = 1.0;
  return nn::make_lenet5(spec);
}

TrainerConfig fast_config(int64_t epochs = 2) {
  TrainerConfig c;
  c.epochs = epochs;
  c.batch_size = 16;
  c.learning_rate = 0.05;
  c.augment = false;
  return c;
}

TEST(TrainerConfigTest, Validation) {
  EXPECT_NO_THROW(fast_config().validate());
  auto c = fast_config();
  c.epochs = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(TrainerTest, ProducesOneStatsPerEpoch) {
  auto model = tiny_model();
  DenseMethod method;
  data::SyntheticVision train(tiny_data()), test(tiny_data(32));
  Trainer trainer(*model, method, train, test, fast_config(3));
  const TrainResult r = trainer.run();
  ASSERT_EQ(r.epochs.size(), 3U);
  EXPECT_EQ(r.final_test_acc, r.epochs.back().test_acc);
  EXPECT_GE(r.best_test_acc, r.final_test_acc);
  EXPECT_GT(r.wall_seconds, 0.0);
}

TEST(TrainerTest, LossDecreasesOnLearnableData) {
  auto model = tiny_model();
  DenseMethod method;
  data::SyntheticVision train(tiny_data(128)), test(tiny_data(32));
  Trainer trainer(*model, method, train, test, fast_config(6));
  const TrainResult r = trainer.run();
  EXPECT_LT(r.epochs.back().train_loss, r.epochs.front().train_loss);
}

TEST(TrainerTest, LearnsAboveChance) {
  auto model = tiny_model();
  DenseMethod method;
  data::SyntheticVision train(tiny_data(256)), test(tiny_data(64));
  Trainer trainer(*model, method, train, test, fast_config(8));
  const TrainResult r = trainer.run();
  // 4 classes -> chance is 25%.
  EXPECT_GT(r.best_test_acc, 40.0);
}

TEST(TrainerTest, SpikeRatesTracked) {
  auto model = tiny_model();
  DenseMethod method;
  data::SyntheticVision train(tiny_data()), test(tiny_data(32));
  Trainer trainer(*model, method, train, test, fast_config(2));
  const TrainResult r = trainer.run();
  for (const auto& e : r.epochs) {
    EXPECT_GE(e.spike_rate, 0.0);
    EXPECT_LE(e.spike_rate, 1.0);
  }
}

TEST(TrainerTest, NdsnnSparsityRampVisibleInTrace) {
  auto model = tiny_model();
  NdsnnConfig c;
  c.initial_sparsity = 0.3;
  c.final_sparsity = 0.8;
  c.delta_t = 2;
  c.t_end = 24;
  NdsnnMethod method(c);
  data::SyntheticVision train(tiny_data(128)), test(tiny_data(32));
  Trainer trainer(*model, method, train, test, fast_config(6));
  const TrainResult r = trainer.run();
  EXPECT_LT(r.epochs.front().sparsity, r.epochs.back().sparsity);
  EXPECT_NEAR(r.epochs.back().sparsity, 0.8, 0.05);
  // Sparse weights really are zero in the model.
  int64_t zeros = 0, total = 0;
  for (const auto& p : model->params()) {
    if (!p.prunable) continue;
    zeros += p.value->count_zeros();
    total += p.value->numel();
  }
  EXPECT_NEAR(static_cast<double>(zeros) / static_cast<double>(total), 0.8, 0.05);
}

TEST(TrainerTest, DeterministicGivenSeed) {
  const auto run_once = [] {
    auto model = tiny_model();
    DenseMethod method;
    data::SyntheticVision train(tiny_data(64)), test(tiny_data(32));
    Trainer trainer(*model, method, train, test, fast_config(2));
    return trainer.run();
  };
  const TrainResult a = run_once();
  const TrainResult b = run_once();
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t i = 0; i < a.epochs.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.epochs[i].train_loss, b.epochs[i].train_loss);
    EXPECT_DOUBLE_EQ(a.epochs[i].test_acc, b.epochs[i].test_acc);
  }
}

/// Test accuracy through the interpreted forward, as Trainer::evaluate
/// computed it before it ran on the compiled plan.
double predict_accuracy(nn::SpikingNetwork& net, const data::Dataset& test, int64_t batch) {
  data::DataLoader loader(test, batch, /*seed=*/1, /*shuffle=*/false);
  loader.start_epoch();
  int64_t correct = 0, total = 0;
  while (auto b = loader.next()) {
    const nn::StepResult r = net.eval_step(b->images, b->labels);
    correct += r.correct;
    total += r.batch;
  }
  return 100.0 * static_cast<double>(correct) / static_cast<double>(total);
}

// Trainer::evaluate runs a compiled plan; its accuracy must be exactly
// the interpreted predict's, on a trained (sparse, firing) lenet5 and a
// small resnet19, with a partial last test batch.
TEST(TrainerTest, EvaluateOnPlanMatchesPredict) {
  for (const std::string arch : {"lenet5", "resnet19"}) {
    SCOPED_TRACE(arch);
    nn::ModelSpec spec;
    spec.num_classes = 4;
    spec.in_channels = 1;
    spec.image_size = 8;
    spec.timesteps = 2;
    spec.width_scale = arch == "resnet19" ? 1.0 / 16.0 : 1.0;
    auto model = nn::make_model(arch, spec);
    NdsnnConfig nc;
    nc.initial_sparsity = 0.5;
    nc.final_sparsity = 0.8;
    nc.delta_t = 2;
    nc.t_end = 6;
    NdsnnMethod method(nc);
    data::SyntheticVision train(tiny_data()), test(tiny_data(40));
    Trainer trainer(*model, method, train, test, fast_config(2));
    const TrainResult r = trainer.run();
    const double planned = trainer.evaluate();
    EXPECT_EQ(planned, r.final_test_acc);
    EXPECT_EQ(planned, predict_accuracy(*model, test, fast_config().batch_size));
  }
}

// Evaluation runs no interpreted forward, so Trainer::run replays the
// last test batch through predict: the spiking layers' recorded firing
// rates, which CompiledNetwork::compile reads, are those of that batch,
// as they were when evaluation ran eval_step.
TEST(TrainerTest, RunLeavesSpikeRatesOfLastTestBatch) {
  auto model = tiny_model();
  DenseMethod method;
  data::SyntheticVision train(tiny_data()), test(tiny_data(40));
  Trainer trainer(*model, method, train, test, fast_config(1));
  (void)trainer.run();
  const double after_run = model->body().last_spike_rate();
  data::DataLoader loader(test, fast_config().batch_size, /*seed=*/1, /*shuffle=*/false);
  loader.start_epoch();
  std::optional<data::Batch> last;
  while (auto b = loader.next()) last = std::move(b);
  ASSERT_TRUE(last.has_value());
  EXPECT_GT(after_run, 0.0);  // the network fires, so the rates say something
  (void)model->predict(last->images);
  EXPECT_EQ(after_run, model->body().last_spike_rate());
}

// A network the runtime cannot compile (Poisson rate coding) is
// evaluated through eval_step instead.
TEST(TrainerTest, EvaluateFallsBackForNonDirectEncoders) {
  tensor::Rng rng(3);
  auto body = std::make_unique<nn::Sequential>();
  body->emplace<nn::Conv2d>(1, 4, 3, 1, 1, rng);
  body->emplace<nn::LifActivation>(snn::LifConfig{}, 2);
  body->emplace<nn::Flatten>();
  body->emplace<nn::Linear>(4 * 8 * 8, 4, rng);
  nn::SpikingNetwork net(std::move(body), 2, std::make_unique<snn::PoissonEncoder>(9));
  DenseMethod method;
  data::SyntheticVision train(tiny_data(16)), test(tiny_data(20));
  Trainer trainer(net, method, train, test, fast_config(1));
  (void)trainer.run();
  double accuracy = -1.0;
  EXPECT_NO_THROW(accuracy = trainer.evaluate());
  EXPECT_GE(accuracy, 0.0);
  EXPECT_LE(accuracy, 100.0);
}

}  // namespace
}  // namespace ndsnn::core
