// Trainer: the full training loop binding model, data, optimizer and a
// SparseTrainingMethod, with the per-epoch bookkeeping the paper's
// evaluation needs (spike rates, sparsity trace, accuracy trace).
#pragma once

#include <memory>
#include <vector>

#include "core/method.hpp"
#include "data/augment.hpp"
#include "data/dataloader.hpp"
#include "nn/network.hpp"
#include "opt/lr_scheduler.hpp"
#include "opt/sgd.hpp"

namespace ndsnn::core {

struct TrainerConfig {
  int64_t epochs = 10;
  int64_t batch_size = 32;
  double learning_rate = 0.3;    ///< paper: 3e-1 SGD
  double momentum = 0.9;
  double weight_decay = 5e-4;
  bool cosine_lr = true;
  bool augment = true;
  uint64_t seed = 1234;
  bool verbose = false;          ///< per-epoch INFO logs

  void validate() const;
};

/// Per-epoch record.
struct EpochStats {
  double train_loss = 0.0;
  double train_acc = 0.0;   ///< percent
  double test_acc = 0.0;    ///< percent
  double sparsity = 0.0;    ///< overall prunable-weight sparsity
  double spike_rate = 0.0;  ///< average firing fraction this epoch
  double lr = 0.0;
};

struct TrainResult {
  std::vector<EpochStats> epochs;
  double final_test_acc = 0.0;
  double best_test_acc = 0.0;
  /// Max test accuracy over epochs whose sparsity already reached the
  /// final level. THIS is what the paper's tables report: round-based
  /// methods (LTH, ADMM) pass through low-sparsity phases whose (higher)
  /// accuracy must not be credited to the sparse model.
  double best_acc_at_final_sparsity = 0.0;
  double final_sparsity = 0.0;
  /// Mean over epochs of spike_rate * (1 - sparsity): the numerator of
  /// the paper's training-cost metric (Fig. 5), before normalizing by the
  /// dense run.
  double cost_index = 0.0;
  double wall_seconds = 0.0;
};

class Trainer {
 public:
  /// All references must outlive the Trainer. The method must NOT be
  /// initialized yet; Trainer calls initialize().
  Trainer(nn::SpikingNetwork& network, SparseTrainingMethod& method,
          const data::Dataset& train_set, const data::Dataset& test_set,
          TrainerConfig config);

  /// Run the full schedule and return the trace.
  [[nodiscard]] TrainResult run();

  /// Evaluate current weights on the test set (percent accuracy): on a
  /// serial fp32 plan compiled from them (bitwise predict's logits), or
  /// through eval_step when the network cannot be compiled.
  [[nodiscard]] double evaluate();

  [[nodiscard]] int64_t iterations_per_epoch() const;
  [[nodiscard]] int64_t total_iterations() const {
    return iterations_per_epoch() * config_.epochs;
  }

 private:
  /// The test set in evaluation order, built on first use: the dataset
  /// is immutable, and generating its images every epoch took about as
  /// long as evaluating them on the plan.
  const std::vector<data::Batch>& test_batches();
  /// Run the last evaluation batch through the interpreted forward, so
  /// the network ends a run as eval_step-based evaluation left it: the
  /// spiking layers' recorded firing rates, which
  /// runtime::CompiledNetwork::compile's kAuto lowering reads, come from
  /// that held-out batch, and no training step's saved activations stay
  /// alive.
  void replay_last_test_batch();

  nn::SpikingNetwork& network_;
  SparseTrainingMethod& method_;
  const data::Dataset& train_set_;
  const data::Dataset& test_set_;
  TrainerConfig config_;
  std::vector<data::Batch> test_batches_;
};

}  // namespace ndsnn::core
