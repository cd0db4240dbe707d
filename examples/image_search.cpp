// Content-based image search (the paper's motivating application, Sec. I):
// SIFT-like float descriptors -> ITQ binary codes (Sec. II-A) -> AP kNN.
//
// The full pipeline the paper assumes happens offline + online:
//   offline: feature extraction (synthesized here), ITQ quantization,
//            automata compilation into board configurations;
//   online:  query encoding, symbol streaming, temporal-sort decoding.
// The example validates AP results against the CPU exact baseline and
// reports recall of binary codes against the float-space ground truth.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <vector>

#include "core/engine.hpp"
#include "knn/exact.hpp"
#include "quant/itq.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

int main() {
  using namespace apss;
  constexpr std::size_t kImages = 1024;
  constexpr std::size_t kQueries = 32;
  constexpr std::size_t kFeatureDims = 128;  // SIFT descriptor length
  constexpr std::size_t kBits = 128;         // kNN-SIFT code width (Table II)
  constexpr std::size_t kK = 4;              // kNN-SIFT neighbors (Table II)

  std::printf("== APSS image search example (kNN-SIFT pipeline) ==\n\n");

  // --- Offline: features + ITQ ---------------------------------------------
  std::printf("[offline] synthesizing %zu SIFT-like descriptors...\n", kImages);
  const quant::Matrix features = quant::gaussian_cluster_features(
      kImages + kQueries, kFeatureDims, /*clusters=*/24,
      /*center_scale=*/2.5, /*spread=*/1.5, /*seed=*/2024);

  std::printf("[offline] training ITQ (%zu bits)...\n", kBits);
  util::Timer itq_timer;
  quant::ItqOptions itq_opt;
  itq_opt.bits = kBits;
  itq_opt.iterations = 30;
  const quant::ItqQuantizer quantizer = quant::ItqQuantizer::fit(features, itq_opt);
  std::printf("[offline] ITQ trained in %.2f s, quantization loss %.3f\n",
              itq_timer.seconds(), quantizer.quantization_loss(features));

  knn::BinaryDataset codes(kImages, kBits);
  knn::BinaryDataset query_codes(kQueries, kBits);
  for (std::size_t i = 0; i < kImages; ++i) {
    codes.set_vector(i, quantizer.encode(features.row(i)));
  }
  for (std::size_t q = 0; q < kQueries; ++q) {
    query_codes.set_vector(q, quantizer.encode(features.row(kImages + q)));
  }

  // --- Offline: compile board configurations -------------------------------
  util::ThreadPool pool;
  core::EngineOptions engine_opt;
  util::Timer compile_timer;
  core::ApKnnEngine engine(codes, engine_opt);
  std::printf("[offline] compiled %zu board configuration(s) in %.2f s "
              "(capacity %zu vectors/config)\n\n",
              engine.configurations(), compile_timer.seconds(),
              engine.capacity_per_config());

  // --- Online: search -------------------------------------------------------
  std::printf("[online] streaming %zu queries through the AP simulator...\n",
              kQueries);
  util::Timer search_timer;
  const auto ap_results = engine.search(query_codes, kK);
  const double sim_wall = search_timer.seconds();

  const auto cpu_results = knn::batch_knn(codes, query_codes, kK, &pool);

  // Validation: AP answers must equal the exact kNN scan in Hamming
  // space, tie order included.
  std::size_t valid = 0;
  for (std::size_t q = 0; q < kQueries; ++q) {
    valid += ap_results[q] == cpu_results[q];
  }

  // Recall of the BINARY pipeline against float-space truth.
  double recall = 0.0;
  for (std::size_t q = 0; q < kQueries; ++q) {
    std::vector<std::pair<double, std::uint32_t>> truth;
    for (std::size_t i = 0; i < kImages; ++i) {
      double dist = 0.0;
      for (std::size_t d = 0; d < kFeatureDims; ++d) {
        const double diff =
            features.at(kImages + q, d) - features.at(i, d);
        dist += diff * diff;
      }
      truth.push_back({dist, static_cast<std::uint32_t>(i)});
    }
    std::sort(truth.begin(), truth.end());
    std::size_t hits = 0;
    for (std::size_t t = 0; t < kK; ++t) {
      for (const auto& nb : ap_results[q]) {
        hits += nb.id == truth[t].second;
      }
    }
    recall += static_cast<double>(hits) / kK;
  }
  recall /= kQueries;

  const auto& stats = engine.last_stats();
  util::TablePrinter table("Image search results");
  table.set_header({"metric", "value"});
  table.add_row({"AP answers exact in Hamming space",
                 std::to_string(valid) + "/" + std::to_string(kQueries)});
  table.add_row({"recall@4 vs float-space truth",
                 util::TablePrinter::fmt(recall, 3)});
  table.add_row({"device cycles simulated",
                 std::to_string(stats.simulated_cycles)});
  table.add_row({"modeled device time (133 MHz)",
                 util::TablePrinter::fmt(
                     stats.compute_seconds(engine_opt.device.timing) * 1e3, 3) +
                     " ms"});
  table.add_row({"host simulation wall time",
                 util::TablePrinter::fmt(sim_wall, 2) + " s"});
  table.add_note("ITQ loses some accuracy vs float features (Sec. II-A); "
                 "the AP result is exact in the quantized space.");
  table.print(std::cout);

  if (valid != kQueries) {
    std::printf("ERROR: AP results diverged from CPU exact kNN!\n");
    return 1;
  }
  (void)cpu_results;
  return 0;
}
