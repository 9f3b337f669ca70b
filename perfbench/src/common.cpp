#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

#include "tensor/ops.hpp"

namespace perfbench {

namespace {

thread_local std::vector<int64_t> t_open_spans;

int64_t thread_number() {
  static std::atomic<int64_t> next{1};
  thread_local const int64_t id = next.fetch_add(1);
  return id;
}

}  // namespace

void Outcome::fail(const std::string& why, int64_t ops) {
  failed += ops;
  if (problems.size() < 8) problems.push_back(why);
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, int64_t group) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  rec_.name = name;
  rec_.id = tracer_->next_id_.fetch_add(1, std::memory_order_relaxed);
  rec_.parent = t_open_spans.empty() ? 0 : t_open_spans.back();
  rec_.group = group;
  rec_.thread = thread_number();
  t_open_spans.push_back(rec_.id);
  rec_.start_us = tracer_->now_us();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  rec_.end_us = tracer_->now_us();
  t_open_spans.pop_back();
  const std::lock_guard<std::mutex> lock(tracer_->mu_);
  tracer_->records_.push_back(rec_);
}

double Tracer::mean_ms(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  int64_t n = 0;
  for (const auto& r : records_) {
    if (name == r.name) {
      total += r.end_us - r.start_us;
      ++n;
    }
  }
  return n > 0 ? total / 1000.0 / static_cast<double>(n) : 0.0;
}

int64_t Tracer::count(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return std::count_if(records_.begin(), records_.end(),
                       [&](const Record& r) { return name == r.name; });
}

std::map<std::string, double> Tracer::self_ms_by_layer(
    const std::vector<std::string>& roots) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<int64_t, const Record*> by_id;
  std::unordered_map<int64_t, double> child_us;
  for (const auto& r : records_) {
    by_id[r.id] = &r;
    if (r.parent != 0) child_us[r.parent] += r.end_us - r.start_us;
  }
  std::map<std::string, double> self;
  for (const auto& r : records_) {
    const Record* root = &r;
    while (root->parent != 0) {
      const auto it = by_id.find(root->parent);
      if (it == by_id.end()) break;
      root = it->second;
    }
    if (std::find(roots.begin(), roots.end(), root->name) == roots.end()) continue;
    const std::string name = r.name;
    const std::string layer = name.substr(0, name.find('.'));
    const auto c = child_us.find(r.id);
    const double covered = c == child_us.end() ? 0.0 : c->second;
    self[layer] += (r.end_us - r.start_us - covered) / 1000.0;
  }
  return self;
}

void Tracer::write_chrome(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace file " + path);
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& r : records_) {
    const std::string name = r.name;
    os << (first ? "" : ",") << "\n{\"name\":\"" << name << "\",\"cat\":\""
       << name.substr(0, name.find('.')) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << r.thread
       << ",\"ts\":" << r.start_us << ",\"dur\":" << (r.end_us - r.start_us)
       << ",\"args\":{\"span\":" << r.id << ",\"parent\":" << r.parent
       << ",\"group\":" << r.group << "}}";
    first = false;
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double total = 0.0;
  for (const double x : v) total += x;
  return total / static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

bool bitwise_equal(const ndsnn::tensor::Tensor& a, const ndsnn::tensor::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.numel()) * sizeof(float)) ==
             0;
}

int64_t count_correct(const ndsnn::tensor::Tensor& logits, const std::vector<int64_t>& labels,
                      std::size_t first_label) {
  const std::vector<int64_t> pred = ndsnn::tensor::argmax_rows(logits);
  int64_t correct = 0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    if (pred[i] == labels.at(first_label + i)) ++correct;
  }
  return correct;
}

void set_self_times(Outcome& out, const Tracer& tracer, const std::vector<std::string>& roots,
                    int64_t units) {
  if (units <= 0) return;
  for (const auto& [layer, ms] : tracer.self_ms_by_layer(roots)) {
    const std::string name = "self." + layer + "_ms";
    for (const auto& spec : kPerLayer) {
      if (name == spec.name) out.set(name, ms / static_cast<double>(units));
    }
  }
}

ndsnn::core::ExperimentConfig lenet_recipe(int64_t epochs, bool serve_model) {
  ndsnn::core::ExperimentConfig cfg;
  cfg.arch = "lenet5";
  cfg.dataset = "cifar10";
  cfg.method = "ndsnn";
  cfg.sparsity = 0.95;
  cfg.timesteps = 2;
  cfg.epochs = epochs;
  cfg.batch_size = 32;
  cfg.train_samples = 320;
  cfg.test_samples = 128;
  cfg.learning_rate = 0.2;
  cfg.model_scale = serve_model ? 0.5 : 1.0;
  cfg.data_scale = serve_model ? 0.5 : 1.0;
  cfg.seed = kModelSeed;
  return cfg;
}

ndsnn::data::SyntheticVision held_out(const ndsnn::core::Experiment& exp, int64_t n) {
  ndsnn::data::SyntheticSpec spec = exp.test_set->spec();
  spec.train_size = n;
  spec.sample_offset += int64_t{1} << 21;
  return ndsnn::data::SyntheticVision(spec);
}

std::vector<int64_t> permutation(int64_t n, ndsnn::tensor::Rng& rng) {
  std::vector<int64_t> order(static_cast<std::size_t>(n));
  for (int64_t i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  rng.shuffle(order);
  return order;
}

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},  {"throughput", "1/s"}, {"p50_ms", "ms"},
    {"p90_ms", "ms"},  {"accuracy", "%"},     {"peak_rss_mb", "MiB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"data.next_ms", "ms"},
    {"nn.train_step_ms", "ms"},
    {"nn.forward_ms", "ms"},
    {"nn.backward_ms", "ms"},
    {"nn.predict_ms", "ms"},
    {"nn.spike_rate", "ratio"},
    {"core.hooks_ms", "ms"},
    {"core.update_round_ms", "ms"},
    {"core.update_rounds", "count"},
    {"core.eval_ms", "ms"},
    {"core.density", "ratio"},
    {"opt.step_ms", "ms"},
    {"runtime.compile_ms", "ms"},
    {"runtime.infer_ms", "ms"},
    {"runtime.predict_over_infer", "x"},
    {"runtime.pooled_infer_ms", "ms"},
    {"util.lanes_speedup", "x"},
    {"util.dispatch_us", "us"},
    {"plan.conv_ms", "ms"},
    {"plan.neuron_ms", "ms"},
    {"plan.pool_ms", "ms"},
    {"plan.bn_ms", "ms"},
    {"plan.linear_ms", "ms"},
    {"plan.conv_share", "ratio"},
    {"plan.firing_rate", "ratio"},
    {"plan.nnz", "count"},
    {"plan.stored_bytes", "B"},
    {"plan.macs", "count"},
    {"wire.encode_us", "us"},
    {"wire.decode_us", "us"},
    {"executor.queue_ms", "ms"},
    {"executor.service_ms", "ms"},
    {"executor.utilization", "ratio"},
    {"executor.shed", "count"},
    {"serve.overhead_ms", "ms"},
    {"loadgen.gap_ms", "ms"},
    {"stream.step_ms", "ms"},
    {"stream.overhead_ms", "ms"},
    {"stream.delta_skip_ratio", "ratio"},
    {"executor.stream_steps", "count"},
    {"executor.backpressure_rejections", "count"},
    {"trace.overhead", "ratio"},
    {"self.data_ms", "ms"},
    {"self.nn_ms", "ms"},
    {"self.core_ms", "ms"},
    {"self.opt_ms", "ms"},
    {"self.runtime_ms", "ms"},
    {"self.sparse_ms", "ms"},
    {"self.serve_ms", "ms"},
};

void print_result(const Outcome& out, bool trace) {
  const auto& table = trace ? kPerLayer : kEndToEnd;
  std::string metrics;
  for (const auto& spec : table) {
    const auto it = out.metrics.find(spec.name);
    // A per-layer metric of a layer the workload never calls reads 0
    // (no work); an end-to-end metric must always be measured.
    double value = 0.0;
    if (it != out.metrics.end()) {
      value = it->second;
    } else if (!trace) {
      throw std::logic_error(std::string("end-to-end metric not measured: ") + spec.name);
    }
    if (!std::isfinite(value)) value = 0.0;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", spec.name, value, spec.unit);
    metrics += buf;
  }
  const bool correct = out.failed == 0 && out.problems.empty();
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
