// Edge deployment: train sparse with NDSNN, export to CSR, and report the
// memory footprint at the bit-widths of real neuromorphic targets
// (Loihi 8-bit, HICANN 4-bit, FPGA 16-bit -- Sec. III-D).
#include <cstdio>

#include "core/experiment.hpp"
#include "sparse/csr.hpp"
#include "sparse/memory_model.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  ndsnn::util::set_log_level(ndsnn::util::LogLevel::kWarn);
  const ndsnn::util::Cli cli(argc, argv);

  ndsnn::core::ExperimentConfig cfg;
  cfg.arch = "lenet5";
  cfg.dataset = "cifar10";
  cfg.method = "ndsnn";
  cfg.sparsity = cli.get_double("--sparsity", 0.95);
  cfg.epochs = cli.get_int("--epochs", 8);
  cli.reject_unknown();
  cfg.train_samples = 320;
  cfg.test_samples = 128;
  cfg.model_scale = 1.0;
  cfg.data_scale = 0.5;
  cfg.timesteps = 2;
  cfg.learning_rate = 0.2;

  std::printf("edge deployment: training sparse SNN (target %.0f%%)...\n",
              100.0 * cfg.sparsity);
  ndsnn::core::Experiment exp = ndsnn::core::build_experiment(cfg);
  ndsnn::core::Trainer trainer(*exp.network, *exp.method, *exp.train_set, *exp.test_set,
                               exp.trainer);
  const auto result = trainer.run();
  std::printf("trained: %.2f%% accuracy at %.1f%% sparsity\n\n", result.best_test_acc,
              100.0 * result.final_sparsity);

  // Export every prunable weight tensor to CSR (reshaping conv weights to
  // [F, C*K*K] as in Sec. III-D) and account the storage.
  std::printf("per-layer CSR export:\n");
  ndsnn::util::Table table({"layer", "shape", "nnz", "sparsity", "dense KB (fp32)",
                            "CSR KB (8b w / 16b idx)"});
  int64_t total_dense_bits = 0, total_csr_bits = 0;
  for (const auto& p : exp.network->params()) {
    if (!p.prunable) continue;
    const auto& w = *p.value;
    const auto csr = ndsnn::sparse::Csr::from_weights(w);
    const int64_t dense_bits = w.numel() * 32;
    const int64_t csr_bits = csr.storage_bits(/*value_bits=*/8, /*index_bits=*/16);
    total_dense_bits += dense_bits;
    total_csr_bits += csr_bits;
    table.add_row({p.name, w.shape().str(), std::to_string(csr.nnz()),
                   ndsnn::util::fmt(csr.sparsity(), 3),
                   ndsnn::util::fmt(static_cast<double>(dense_bits) / 8192.0, 1),
                   ndsnn::util::fmt(static_cast<double>(csr_bits) / 8192.0, 1)});
  }
  table.print();
  std::printf("\ntotal: %.1f KB dense fp32 -> %.1f KB CSR (%.1fx smaller)\n",
              static_cast<double>(total_dense_bits) / 8192.0,
              static_cast<double>(total_csr_bits) / 8192.0,
              static_cast<double>(total_dense_bits) / static_cast<double>(total_csr_bits));

  // Footprint on the platforms the paper cites.
  std::printf("\ninference footprint by platform (Sec. III-D bit widths):\n");
  ndsnn::util::Table plat({"platform", "weight bits", "footprint KB"});
  for (const auto& [name, bits] : std::vector<std::pair<const char*, int64_t>>{
           {"Intel Loihi", 8}, {"HICANN (mixed-signal)", 4}, {"FPGA (SyncNN)", 16}}) {
    int64_t total = 0;
    for (const auto& p : exp.network->params()) {
      if (!p.prunable) continue;
      total += ndsnn::sparse::Csr::from_weights(*p.value).storage_bits(bits, 16);
    }
    plat.add_row({name, std::to_string(bits),
                  ndsnn::util::fmt(static_cast<double>(total) / 8192.0, 1)});
  }
  plat.print();
  return 0;
}
