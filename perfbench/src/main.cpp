// perfbench: one seeded workload per run, end-to-end metrics by default,
// per-layer metrics with --trace 1. The last line of stdout is the
// result JSON; the exit code is nonzero when a correctness gate failed.
//
//   perfbench --workload train_ndsnn|plan_batch
//             --seed N --seconds S --trace 0|1 [--trace-out spans.json]
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <string>

#include "common.hpp"
#include "util/logging.hpp"

namespace {

using perfbench::Options;
using perfbench::Outcome;
using perfbench::Tracer;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "train_ndsnn|plan_batch --seed N --seconds S "
               "--trace 0|1 [--trace-out spans.json]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ndsnn::util::set_log_level(ndsnn::util::LogLevel::kWarn);
  Options opts;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 != 1) return usage("flags take one value each");
  try {
    opts.workload = args.at("--workload");
    opts.seed = std::stoull(args.at("--seed"));
    opts.seconds = std::stod(args.at("--seconds"));
    const std::string trace = args.count("--trace") ? args.at("--trace") : "0";
    if (trace != "0" && trace != "1") return usage("--trace takes 0 or 1");
    opts.trace = trace == "1";
    if (args.count("--trace-out")) opts.trace_out = args.at("--trace-out");
  } catch (const std::exception&) {
    return usage("missing or malformed flag");
  }
  if (!(opts.seconds > 0.0) || opts.seconds > 600.0) return usage("--seconds out of range");

  using Runner = Outcome (*)(const Options&, Tracer&);
  const std::map<std::string, Runner> workloads = {
      {"train_ndsnn", perfbench::run_train_ndsnn},
      {"plan_batch", perfbench::run_plan_batch},
  };
  const auto it = workloads.find(opts.workload);
  if (it == workloads.end()) return usage("unknown workload");

  Tracer tracer(opts.trace);
  Outcome out;
  try {
    out = it->second(opts, tracer);
    if (!opts.trace_out.empty() && opts.trace) tracer.write_chrome(opts.trace_out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opts.workload.c_str(), e.what());
    return 1;
  }
  for (const auto& [name, value] : out.metrics) {
    if (!std::isfinite(value)) out.fail("metric " + name + " is not finite", 0);
  }
  if (out.attempted < 1) out.fail("no operation attempted", 0);

  std::printf("%s: attempted %lld, failed %lld\n", opts.workload.c_str(),
              static_cast<long long>(out.attempted), static_cast<long long>(out.failed));
  for (const auto& p : out.problems) std::printf("  gate: %s\n", p.c_str());
  perfbench::print_result(out, opts.trace);
  return out.failed == 0 && out.problems.empty() ? 0 : 1;
}
