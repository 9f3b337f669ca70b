#include "runtime/trace.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <stdexcept>

#include "util/json.hpp"

namespace ndsnn::runtime {

namespace trace {

namespace detail {
std::atomic<bool> g_enabled{false};
}

namespace {

/// Registry of every thread's ring: owns a shared_ptr alongside the
/// thread_local one, so spans recorded by a thread survive its exit
/// until the next reset().
struct RingRegistry {
  std::mutex mu;
  std::vector<std::shared_ptr<Ring>> rings;
  std::atomic<std::size_t> capacity{std::size_t{1} << 15};

  static RingRegistry& get() {
    static RingRegistry registry;
    return registry;
  }

  std::shared_ptr<Ring> make_ring() {
    auto ring = std::make_shared<Ring>(capacity.load(std::memory_order_relaxed));
    const std::lock_guard<std::mutex> lock(mu);
    rings.push_back(ring);
    return ring;
  }
};

Ring& thread_ring() {
  thread_local const std::shared_ptr<Ring> ring = RingRegistry::get().make_ring();
  return *ring;
}

std::chrono::steady_clock::time_point epoch() {
  static const auto t0 = std::chrono::steady_clock::now();
  return t0;
}

}  // namespace

Ring::Ring(std::size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {
  buf_.reserve(std::min<std::size_t>(capacity_, 1024));
}

void Ring::push(Span&& s) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (buf_.size() < capacity_) {
    buf_.push_back(std::move(s));
  } else {
    buf_[static_cast<std::size_t>(total_) % capacity_] = std::move(s);
  }
  ++total_;
}

std::vector<Span> Ring::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  out.reserve(buf_.size());
  if (buf_.size() < capacity_) {
    out = buf_;
  } else {
    // Wrapped: the oldest retained span sits at the write cursor.
    const std::size_t start = static_cast<std::size_t>(total_) % capacity_;
    for (std::size_t i = 0; i < capacity_; ++i) {
      out.push_back(buf_[(start + i) % capacity_]);
    }
  }
  return out;
}

std::size_t Ring::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return buf_.size();
}

int64_t Ring::dropped() const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto cap = static_cast<int64_t>(capacity_);
  return total_ > cap ? total_ - cap : 0;
}

void Ring::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  buf_.clear();
  total_ = 0;
}

void set_enabled(bool on) { detail::g_enabled.store(on, std::memory_order_relaxed); }

double now_us() {
  const auto dt = std::chrono::steady_clock::now() - epoch();
  return std::chrono::duration<double, std::micro>(dt).count();
}

uint32_t thread_id() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void record(Span&& s) {
  s.tid = thread_id();
  thread_ring().push(std::move(s));
}

std::vector<Span> snapshot() {
  std::vector<std::shared_ptr<Ring>> rings;
  {
    RingRegistry& reg = RingRegistry::get();
    const std::lock_guard<std::mutex> lock(reg.mu);
    rings = reg.rings;
  }
  std::vector<Span> all;
  for (const auto& ring : rings) {
    std::vector<Span> part = ring->spans();
    all.insert(all.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const Span& a, const Span& b) { return a.ts_us < b.ts_us; });
  return all;
}

int64_t dropped() {
  RingRegistry& reg = RingRegistry::get();
  const std::lock_guard<std::mutex> lock(reg.mu);
  int64_t total = 0;
  for (const auto& ring : reg.rings) total += ring->dropped();
  return total;
}

void reset() {
  RingRegistry& reg = RingRegistry::get();
  const std::lock_guard<std::mutex> lock(reg.mu);
  for (const auto& ring : reg.rings) ring->clear();
}

void set_ring_capacity(std::size_t capacity) {
  RingRegistry::get().capacity.store(capacity == 0 ? 1 : capacity,
                                     std::memory_order_relaxed);
}

std::string chrome_json(const std::vector<Span>& spans) {
  util::JsonWriter json;
  json.begin_object();
  json.kv("displayTimeUnit", "ms");
  json.key("traceEvents").begin_array();
  for (const Span& s : spans) {
    json.begin_object();
    json.kv("name", s.name);
    json.kv("cat", s.cat);
    json.kv("ph", "X");  // complete event: start + duration in one record
    json.kv("pid", 1);
    json.kv("tid", static_cast<int64_t>(s.tid));
    json.kv("ts", s.ts_us);
    json.kv("dur", s.dur_us);
    json.key("args").begin_object();
    if (!s.kind.empty()) json.kv("kind", s.kind);
    if (s.rows >= 0) json.kv("rows", s.rows);
    if (s.spike_rate >= 0) json.kv("spike_rate", s.spike_rate);
    if (s.bytes >= 0) json.kv("bytes", s.bytes);
    json.end_object();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

void write_chrome_file(const std::string& path) {
  const std::string doc = chrome_json(snapshot());
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("trace::write_chrome_file: cannot open " + path);
  }
  out << doc;
}

}  // namespace trace

PlanProfile::PlanProfile(const std::vector<OpReport>& reports) {
  labels_.reserve(reports.size());
  for (const OpReport& r : reports) {
    std::string kind = r.kind;
    if (r.event) kind += "+event";
    if (r.precision != sparse::Precision::kFp32) {
      kind += std::string(" ") + sparse::precision_tag(r.precision);
    }
    labels_.emplace_back(r.layer, std::move(kind));
  }
  slots_ = std::make_unique<Slot[]>(labels_.size());
}

void PlanProfile::record(std::size_t op, double dur_us, int64_t rows, double rate) {
  if (op >= labels_.size()) return;
  Slot& slot = slots_[op];
  slot.hist.record(dur_us);
  slot.runs.fetch_add(1, std::memory_order_relaxed);
  slot.rows.fetch_add(rows, std::memory_order_relaxed);
  if (rate >= 0.0) {
    double cur = slot.ema.load(std::memory_order_relaxed);
    for (;;) {
      const double next = cur < 0.0 ? rate : cur * (1.0 - kEmaAlpha) + rate * kEmaAlpha;
      if (slot.ema.compare_exchange_weak(cur, next, std::memory_order_relaxed)) break;
    }
  }
}

std::vector<PlanProfile::OpStats> PlanProfile::snapshot() const {
  std::vector<OpStats> out;
  out.reserve(labels_.size());
  for (std::size_t i = 0; i < labels_.size(); ++i) {
    const Slot& slot = slots_[i];
    const util::HistogramSnapshot h = slot.hist.snapshot();
    OpStats s;
    s.layer = labels_[i].first;
    s.kind = labels_[i].second;
    s.runs = slot.runs.load(std::memory_order_relaxed);
    s.rows = slot.rows.load(std::memory_order_relaxed);
    s.mean_us = h.mean();
    s.p50_us = h.percentile(0.50);
    s.p95_us = h.percentile(0.95);
    s.ema_rate = slot.ema.load(std::memory_order_relaxed);
    out.push_back(std::move(s));
  }
  return out;
}

void PlanProfile::reset() {
  executes_.store(0, std::memory_order_relaxed);
  for (std::size_t i = 0; i < labels_.size(); ++i) {
    Slot& slot = slots_[i];
    slot.hist.reset();
    slot.runs.store(0, std::memory_order_relaxed);
    slot.rows.store(0, std::memory_order_relaxed);
    slot.ema.store(-1.0, std::memory_order_relaxed);
  }
}

namespace trace {

double nonzero_fraction(const tensor::Tensor& t) {
  const int64_t n = t.numel();
  if (n == 0) return 0.0;
  const float* p = t.data();
  int64_t nz = 0;
  for (int64_t i = 0; i < n; ++i) nz += p[i] != 0.0F;
  return static_cast<double>(nz) / static_cast<double>(n);
}

void run_op_instrumented(const Op& op, const OpReport& report, const Activation& in,
                         Activation& out, PlanProfile* profile, std::size_t index) {
  const bool traced = enabled();
  const int64_t in_bytes = in.tensor.numel() * static_cast<int64_t>(sizeof(float));
  const double t0 = now_us();
  op.run_into(in, out);
  const double dur = now_us() - t0;

  const int64_t rows = out.tensor.rank() >= 1 ? out.tensor.dim(0) : 1;
  // A residual block outputs its output LIF's spike train.
  const bool spikes = report.kind == "lif" || report.kind == "alif" || report.kind == "residual";
  const double rate = spikes ? nonzero_fraction(out.tensor) : -1.0;
  if (profile != nullptr) profile->record(index, dur, rows, rate);
  if (traced) {
    Span s;
    s.name = report.layer;
    s.cat = "op";
    s.ts_us = t0;
    s.dur_us = dur;
    s.kind = report.kind;
    if (report.event) s.kind += "+event";
    if (report.precision != sparse::Precision::kFp32) {
      s.kind += std::string(" ") + sparse::precision_tag(report.precision);
    }
    s.rows = rows;
    s.spike_rate = rate;
    // Approximate bytes touched: weight structure + input + output
    // activations (each read/written once per run).
    s.bytes = report.bytes + in_bytes +
              out.tensor.numel() * static_cast<int64_t>(sizeof(float));
    record(std::move(s));
  }
}

}  // namespace trace

}  // namespace ndsnn::runtime
