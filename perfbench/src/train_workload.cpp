// train_ndsnn: NDSNN from scratch on spiking LeNet-5 through
// core::Trainer::run — the paper's own job.
//
// Untraced: Trainer::run trains one freshly built experiment after
// another until --seconds have passed; setup_s is the median time of the
// build_experiment calls made before each and after the last. Iteration times come from
// a decorator around the NDSNN method that timestamps every after_step.
// The trained network is then scored on held-out images the seed draws.
//
// Traced: Trainer::run once untraced (the reference and the untraced
// throughput), then a replica of its loop from public calls with a span
// around every layer call. The replica must reproduce the reference's
// final accuracy and sparsity exactly.
#include <algorithm>
#include <optional>

#include "common.hpp"
#include "core/ndsnn_method.hpp"
#include "core/trainer.hpp"
#include "data/augment.hpp"
#include "data/dataloader.hpp"
#include "opt/lr_scheduler.hpp"
#include "opt/sgd.hpp"

namespace perfbench {

namespace {

using ndsnn::core::Experiment;
using ndsnn::core::ExperimentConfig;

/// Forwards every call to the wrapped method and timestamps each
/// after_step. An iteration runs from the previous after_step, or from
/// on_epoch_begin for an epoch's first one, to its after_step: data,
/// train_step, hooks and the SGD step. The per-epoch test pass falls
/// between epochs and counts in throughput, not in any iteration.
class TimedMethod final : public ndsnn::core::SparseTrainingMethod {
 public:
  explicit TimedMethod(ndsnn::core::SparseTrainingMethod& inner) : inner_(inner) {}

  void initialize(const std::vector<ndsnn::nn::ParamRef>& params,
                  ndsnn::tensor::Rng& rng) override {
    inner_.initialize(params, rng);
  }
  void before_step(int64_t iteration) override { inner_.before_step(iteration); }
  void after_step(int64_t iteration) override {
    inner_.after_step(iteration);
    const auto now = Clock::now();
    iteration_ms.push_back(ms_between(last_, now));
    last_ = now;
  }
  void on_epoch_begin(int64_t epoch) override {
    inner_.on_epoch_begin(epoch);
    last_ = Clock::now();
  }
  [[nodiscard]] double overall_sparsity() const override { return inner_.overall_sparsity(); }
  [[nodiscard]] std::vector<double> layer_sparsities() const override {
    return inner_.layer_sparsities();
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  std::vector<double> iteration_ms;

 private:
  ndsnn::core::SparseTrainingMethod& inner_;
  Clock::time_point last_ = Clock::now();
};

constexpr int64_t kScored = 1024;

/// Top-1 (%) of the trained network on kScored held-out images that the
/// workload seed draws from the recipe's distribution. The training job
/// itself is fixed: on 320 images, a different shuffle seed moves the
/// final accuracy by +-10 points and, through the zero-skipping
/// matmuls, the work done.
double score(Experiment& exp, uint64_t seed) {
  ndsnn::data::SyntheticSpec spec = exp.test_set->spec();
  spec.train_size = kScored;
  spec.sample_offset = (int64_t{1} << 22) + static_cast<int64_t>(seed % 4096) * kScored;
  const ndsnn::data::SyntheticVision images(spec);
  ndsnn::data::DataLoader loader(images, exp.trainer.batch_size, /*seed=*/1, /*shuffle=*/false);
  loader.start_epoch();
  int64_t correct = 0;
  while (auto batch = loader.next()) {
    correct += exp.network->eval_step(batch->images, batch->labels).correct;
  }
  return 100.0 * static_cast<double>(correct) / static_cast<double>(kScored);
}

int64_t samples_per_run(const Experiment& exp) {
  return exp.train_set->size() * exp.trainer.epochs;
}

/// Final sparsity must land on the target; a drifting ramp is a bug.
void check_sparsity(Outcome& out, double sparsity, double target) {
  if (std::abs(sparsity - target) > 0.005) {
    out.fail("final sparsity " + std::to_string(sparsity) + " misses target " +
             std::to_string(target));
  }
}

struct ReplicaResult {
  double final_test_acc = 0.0;
  double final_sparsity = 0.0;
  double train_ms = 0.0;  ///< loop wall time minus the forward probes
  int64_t iterations = 0;
};

/// Trainer::run's loop rebuilt from public calls, one span per layer
/// call. One extra eval_step per iteration (the nn.forward_ms probe)
/// times the forward half of train_step on the same batch; it only reads
/// the weights, its time is excluded from train_ms, and "probe." spans
/// count towards no layer's self time.
ReplicaResult traced_replica(Experiment& exp, Tracer& tracer, Outcome& out) {
  namespace data = ndsnn::data;
  auto& net = *exp.network;
  auto& method = dynamic_cast<ndsnn::core::NdsnnMethod&>(*exp.method);
  const auto& cfg = exp.trainer;

  const auto start = Clock::now();
  double probe_ms = 0.0;
  ndsnn::tensor::Rng rng(cfg.seed);
  method.initialize(net.params(), rng);
  ndsnn::opt::SgdConfig sgd_config;
  sgd_config.learning_rate = cfg.learning_rate;
  sgd_config.momentum = cfg.momentum;
  sgd_config.weight_decay = cfg.weight_decay;
  ndsnn::opt::Sgd sgd(net.params(), sgd_config);
  const ndsnn::opt::CosineLr cosine(cfg.learning_rate, cfg.epochs);
  data::DataLoader loader(*exp.train_set, cfg.batch_size, cfg.seed ^ 0xABCDULL);
  data::AugmentConfig aug;
  aug.crop_padding = std::max<int64_t>(1, exp.train_set->image_size() / 8);
  ndsnn::tensor::Rng aug_rng(cfg.seed ^ 0x5EEDULL);

  std::vector<double> spike_rates, update_round_ms;
  ReplicaResult result;
  int64_t iteration = 0;
  for (int64_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    method.on_epoch_begin(epoch);
    sgd.set_learning_rate(cfg.cosine_lr ? cosine.lr_at(epoch) : cfg.learning_rate);
    loader.start_epoch();
    while (true) {
      const auto iter_span = tracer.span("loop.iteration", iteration);
      std::optional<data::Batch> batch;
      {
        const auto s = tracer.span("data.next", iteration);
        batch = loader.next();
        if (batch && cfg.augment) data::augment_batch(batch->images, aug, aug_rng);
      }
      if (!batch) break;
      {
        const auto s = tracer.span("opt.zero_grad", iteration);
        sgd.zero_grad();
      }
      ndsnn::nn::StepResult r;
      {
        const auto s = tracer.span("nn.train_step", iteration);
        r = net.train_step(batch->images, batch->labels);
      }
      {
        const auto t0 = Clock::now();
        {
          const auto s = tracer.span("probe.nn_forward", iteration);
          (void)net.eval_step(batch->images, batch->labels);
        }
        probe_ms += ms_between(t0, Clock::now());
      }
      const auto hooks_start = Clock::now();
      {
        const auto s = tracer.span("core.before_step", iteration);
        method.before_step(iteration);
      }
      const double before_ms = ms_between(hooks_start, Clock::now());
      {
        const auto s = tracer.span("opt.step", iteration);
        sgd.step();
      }
      const auto after_start = Clock::now();
      {
        const auto s = tracer.span("core.after_step", iteration);
        method.after_step(iteration);
      }
      if (method.is_update_step(iteration)) {
        update_round_ms.push_back(before_ms + ms_between(after_start, Clock::now()));
      }
      spike_rates.push_back(r.spike_rate);
      ++iteration;
    }
    // Trainer::evaluate, call for call.
    const auto eval_span = tracer.span("core.eval", epoch);
    data::DataLoader test_loader(*exp.test_set, cfg.batch_size, /*seed=*/1, /*shuffle=*/false);
    test_loader.start_epoch();
    int64_t correct = 0, total = 0;
    while (true) {
      std::optional<data::Batch> batch;
      {
        const auto s = tracer.span("data.next_test", epoch);
        batch = test_loader.next();
      }
      if (!batch) break;
      const auto s = tracer.span("nn.eval_step", epoch);
      const ndsnn::nn::StepResult r = net.eval_step(batch->images, batch->labels);
      correct += r.correct;
      total += r.batch;
    }
    result.final_test_acc =
        total == 0 ? 0.0 : 100.0 * static_cast<double>(correct) / static_cast<double>(total);
    result.final_sparsity = method.overall_sparsity();
  }
  result.train_ms = ms_between(start, Clock::now()) - probe_ms;
  result.iterations = iteration;

  out.set("nn.spike_rate", mean(spike_rates));
  out.set("core.update_round_ms", mean(update_round_ms));
  out.set("core.update_rounds", static_cast<double>(update_round_ms.size()));
  out.set("core.density", 1.0 - result.final_sparsity);
  return result;
}

Outcome traced(const ExperimentConfig& cfg, Tracer& tracer) {
  Outcome out;
  Experiment ref_exp = ndsnn::core::build_experiment(cfg);
  ndsnn::core::Trainer trainer(*ref_exp.network, *ref_exp.method, *ref_exp.train_set,
                               *ref_exp.test_set, ref_exp.trainer);
  const auto t0 = Clock::now();
  const ndsnn::core::TrainResult ref = trainer.run();
  const double untraced_ms = ms_between(t0, Clock::now());

  Experiment exp = ndsnn::core::build_experiment(cfg);
  const ReplicaResult rep = traced_replica(exp, tracer, out);
  out.attempted = 2;
  if (rep.final_test_acc != ref.final_test_acc || rep.final_sparsity != ref.final_sparsity) {
    out.fail("traced replica (acc " + std::to_string(rep.final_test_acc) + ", sparsity " +
             std::to_string(rep.final_sparsity) + ") differs from Trainer::run (acc " +
             std::to_string(ref.final_test_acc) + ", sparsity " +
             std::to_string(ref.final_sparsity) + ")");
  }
  check_sparsity(out, ref.final_sparsity, cfg.sparsity);

  const double train_step = tracer.mean_ms("nn.train_step");
  const double forward = tracer.mean_ms("probe.nn_forward");
  // Per iteration: each epoch's last next() call finds no batch.
  const auto iterations = static_cast<double>(rep.iterations);
  out.set("data.next_ms",
          tracer.mean_ms("data.next") * static_cast<double>(tracer.count("data.next")) /
              iterations);
  out.set("nn.train_step_ms", train_step);
  out.set("nn.forward_ms", forward);
  out.set("nn.backward_ms", train_step - forward);
  out.set("core.hooks_ms", tracer.mean_ms("core.before_step") + tracer.mean_ms("core.after_step"));
  out.set("core.eval_ms", tracer.mean_ms("core.eval"));
  out.set("opt.step_ms", tracer.mean_ms("opt.step"));
  // Traced vs untraced cost of the same training job.
  out.set("trace.overhead", rep.train_ms / untraced_ms - 1.0);
  set_self_times(out, tracer, {"loop.iteration", "core.eval"}, rep.iterations);
  return out;
}

}  // namespace

Outcome run_train_ndsnn(const Options& opts, Tracer& tracer) {
  const ExperimentConfig cfg = lenet_recipe(/*epochs=*/8, /*serve_model=*/false);
  if (opts.trace) return traced(cfg, tracer);

  // build_experiment takes milliseconds, too short to time once. Before
  // each Trainer::run, and once more after the last, kBuilds builds are
  // timed, each freed before the next (so builds reuse warm allocator
  // memory, as repeated builds in one process do). The host's speed
  // shifts within seconds, so setup_s, their median, samples it at both
  // ends of the window rather than at one instant.
  constexpr int kBuilds = 12;
  std::vector<double> setup_s;
  const auto time_builds = [&](std::optional<Experiment>& slot) {
    for (int i = 0; i < kBuilds; ++i) {
      slot.reset();
      const auto t0 = Clock::now();
      slot.emplace(ndsnn::core::build_experiment(cfg));
      setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    }
  };

  Outcome out;
  std::vector<double> throughput, iteration_ms;
  std::optional<ndsnn::core::TrainResult> first;
  std::optional<Experiment> trained;
  const auto window = Clock::now();
  while (throughput.empty() || ms_between(window, Clock::now()) < opts.seconds * 1000.0) {
    time_builds(trained);  // the last build is the one trained
    Experiment& exp = *trained;
    TimedMethod method(*exp.method);
    ndsnn::core::Trainer trainer(*exp.network, method, *exp.train_set, *exp.test_set,
                                 exp.trainer);
    const auto t0 = Clock::now();
    const ndsnn::core::TrainResult result = trainer.run();
    const double wall_s = ms_between(t0, Clock::now()) / 1000.0;
    ++out.attempted;
    throughput.push_back(static_cast<double>(samples_per_run(exp)) / wall_s);
    iteration_ms.insert(iteration_ms.end(), method.iteration_ms.begin(),
                        method.iteration_ms.end());
    if (!first) {
      first = result;
      check_sparsity(out, result.final_sparsity, cfg.sparsity);
    } else if (result.final_test_acc != first->final_test_acc ||
               result.final_sparsity != first->final_sparsity) {
      out.fail("Trainer::run is not deterministic");
    }
  }

  const double accuracy = score(*trained, opts.seed);
  time_builds(trained);

  out.set("setup_s", median(setup_s));
  out.set("throughput", median(throughput));
  out.set("p50_ms", median(iteration_ms));
  // 80 iterations a run: p90 is the highest percentile with ~10 beyond.
  out.set("p90_ms", percentile(iteration_ms, 0.9));
  out.set("accuracy", accuracy);
  out.set("peak_rss_mb", peak_rss_mb());
  std::printf("train_ndsnn: %lld runs, %zu iterations, final test accuracy %.2f%%, "
              "final sparsity %.4f\n",
              static_cast<long long>(out.attempted), iteration_ms.size(),
              first->final_test_acc, first->final_sparsity);
  return out;
}

}  // namespace perfbench
