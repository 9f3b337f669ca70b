#include "core/trainer.hpp"

#include <optional>
#include <stdexcept>
#include <vector>

#include "runtime/compiled_network.hpp"
#include "tensor/ops.hpp"
#include "util/logging.hpp"
#include "util/stopwatch.hpp"

namespace ndsnn::core {

void TrainerConfig::validate() const {
  if (epochs < 1) throw std::invalid_argument("TrainerConfig: epochs must be >= 1");
  if (batch_size < 1) throw std::invalid_argument("TrainerConfig: batch_size must be >= 1");
  if (learning_rate <= 0.0) throw std::invalid_argument("TrainerConfig: bad learning_rate");
}

Trainer::Trainer(nn::SpikingNetwork& network, SparseTrainingMethod& method,
                 const data::Dataset& train_set, const data::Dataset& test_set,
                 TrainerConfig config)
    : network_(network),
      method_(method),
      train_set_(train_set),
      test_set_(test_set),
      config_(config) {
  config_.validate();
}

int64_t Trainer::iterations_per_epoch() const {
  return (train_set_.size() + config_.batch_size - 1) / config_.batch_size;
}

namespace {

/// Every layer back to dense weight gradients, so no gradient mask of an
/// earlier method outlives its run.
void clear_grad_masks(nn::SpikingNetwork& network) {
  for (const nn::ParamRef& p : network.params()) {
    if (p.grad_mask != nullptr) p.grad_mask->keep_all();
  }
}

}  // namespace

double Trainer::evaluate() {
  // A serial fp32 plan's logits are bitwise those of predict (the
  // runtime's contract, for every backend), so the counts are
  // eval_step's, at a fraction of the interpreted forward's cost. CSR on
  // every weight layer: a dense conv fallback would allocate a patch
  // matrix on top of the training workspaces. Networks the runtime
  // cannot lower (non-direct encoders) fall back to eval_step.
  std::optional<runtime::CompiledNetwork> plan;
  try {
    runtime::CompileOptions options;
    options.backend = runtime::Backend::kCsr;
    plan.emplace(runtime::CompiledNetwork::compile(network_, options));
  } catch (const std::invalid_argument&) {
  }
  int64_t correct = 0, total = 0;
  for (const data::Batch& batch : test_batches()) {
    if (plan) {
      const std::vector<int64_t> predicted =
          tensor::argmax_rows(plan->infer({batch.images, {}}).logits);
      for (std::size_t i = 0; i < predicted.size(); ++i) {
        correct += predicted[i] == batch.labels[i] ? 1 : 0;
      }
      total += batch.size();
      continue;
    }
    const nn::StepResult r = network_.eval_step(batch.images, batch.labels);
    correct += r.correct;
    total += r.batch;
  }
  if (total == 0) return 0.0;
  return 100.0 * static_cast<double>(correct) / static_cast<double>(total);
}

const std::vector<data::Batch>& Trainer::test_batches() {
  if (test_batches_.empty()) {
    data::DataLoader loader(test_set_, config_.batch_size, /*seed=*/1, /*shuffle=*/false);
    loader.start_epoch();
    while (auto batch = loader.next()) test_batches_.push_back(std::move(*batch));
  }
  return test_batches_;
}

void Trainer::replay_last_test_batch() {
  if (!test_batches().empty()) (void)network_.predict(test_batches().back().images);
}

TrainResult Trainer::run() {
  util::Stopwatch watch;
  tensor::Rng rng(config_.seed);
  clear_grad_masks(network_);
  method_.initialize(network_.params(), rng);

  opt::SgdConfig sgd_config;
  sgd_config.learning_rate = config_.learning_rate;
  sgd_config.momentum = config_.momentum;
  sgd_config.weight_decay = config_.weight_decay;
  opt::Sgd sgd(network_.params(), sgd_config);
  opt::CosineLr cosine(config_.learning_rate, config_.epochs);

  data::DataLoader loader(train_set_, config_.batch_size, config_.seed ^ 0xABCDULL);
  data::AugmentConfig aug;
  // Scale the CIFAR recipe (pad 4 at 32px) down with the resolution so
  // miniature benches are not over-augmented.
  aug.crop_padding = std::max<int64_t>(1, train_set_.image_size() / 8);
  tensor::Rng aug_rng(config_.seed ^ 0x5EEDULL);

  TrainResult result;
  int64_t iteration = 0;
  for (int64_t epoch = 0; epoch < config_.epochs; ++epoch) {
    method_.on_epoch_begin(epoch);
    const double lr = config_.cosine_lr ? cosine.lr_at(epoch) : config_.learning_rate;
    sgd.set_learning_rate(lr);

    loader.start_epoch();
    double loss_acc = 0.0, spike_acc = 0.0;
    int64_t correct = 0, seen = 0, batches = 0;
    while (auto batch = loader.next()) {
      if (config_.augment) augment_batch(batch->images, aug, aug_rng);
      sgd.zero_grad();
      const nn::StepResult r = network_.train_step(batch->images, batch->labels);
      method_.before_step(iteration);
      sgd.step();
      method_.after_step(iteration);
      ++iteration;
      loss_acc += r.loss;
      spike_acc += r.spike_rate;
      correct += r.correct;
      seen += r.batch;
      ++batches;
    }

    EpochStats stats;
    stats.train_loss = batches > 0 ? loss_acc / static_cast<double>(batches) : 0.0;
    stats.train_acc = seen > 0 ? 100.0 * static_cast<double>(correct) / static_cast<double>(seen) : 0.0;
    stats.test_acc = evaluate();
    stats.sparsity = method_.overall_sparsity();
    stats.spike_rate = batches > 0 ? spike_acc / static_cast<double>(batches) : 0.0;
    stats.lr = lr;
    result.epochs.push_back(stats);

    if (config_.verbose) {
      util::log_info() << method_.name() << " epoch " << epoch << ": loss="
                       << stats.train_loss << " train_acc=" << stats.train_acc
                       << "% test_acc=" << stats.test_acc << "% sparsity="
                       << stats.sparsity << " spike_rate=" << stats.spike_rate;
    }
  }

  result.final_test_acc = result.epochs.back().test_acc;
  result.final_sparsity = result.epochs.back().sparsity;
  for (const auto& e : result.epochs) {
    result.best_test_acc = std::max(result.best_test_acc, e.test_acc);
    if (e.sparsity >= result.final_sparsity - 1e-6) {
      result.best_acc_at_final_sparsity =
          std::max(result.best_acc_at_final_sparsity, e.test_acc);
    }
    result.cost_index += e.spike_rate * (1.0 - e.sparsity);
  }
  result.cost_index /= static_cast<double>(result.epochs.size());
  clear_grad_masks(network_);
  replay_last_test_batch();
  result.wall_seconds = watch.seconds();
  return result;
}

}  // namespace ndsnn::core
