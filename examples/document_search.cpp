// Document similarity search with host-side indexing (Sec. III-D):
// word-embedding-style 64-bit codes (kNN-WordEmbed, Table II), a host-side
// kd-forest that prunes the search to a few buckets, and an AP bucket scan
// per probed bucket — exactly the division of labor the paper proposes
// ("the host processor can traverse the index and pick which set of vector
// NFAs to load and query").

#include <cstdio>
#include <iostream>
#include <map>

#include "core/engine.hpp"
#include "index/kd_tree.hpp"
#include "knn/exact.hpp"
#include "util/table.hpp"

int main() {
  using namespace apss;
  constexpr std::size_t kDocs = 4096;
  constexpr std::size_t kQueries = 24;
  constexpr std::size_t kDims = 64;  // kNN-WordEmbed (Table II)
  constexpr std::size_t kK = 2;
  constexpr std::size_t kBucket = 256;  // one (shrunk) board configuration

  std::printf("== APSS document search example (kNN-WordEmbed + kd-forest) ==\n\n");

  // Synthetic corpus: clustered binary codes standing in for quantized
  // word-embedding document vectors (Sec. IV-A).
  const auto corpus = knn::BinaryDataset::clustered(kDocs, kDims,
                                                    /*clusters=*/32,
                                                    /*flip_prob=*/0.04, 99);
  const auto queries = knn::perturbed_queries(corpus, kQueries, 0.05, 100);

  // Host-side index: bucket size matched to a board configuration.
  index::KdTreeOptions kd_opt;
  kd_opt.trees = 4;
  kd_opt.leaf_size = kBucket;
  const index::RandomizedKdForest forest(corpus, kd_opt);
  std::printf("kd-forest: %zu trees, %zu buckets, largest bucket %zu\n\n",
              forest.tree_count(), forest.bucket_count(),
              forest.max_bucket_size());

  double recall_sum = 0.0;
  std::size_t scanned_sum = 0;
  std::size_t ap_cycles = 0;

  for (std::size_t q = 0; q < kQueries; ++q) {
    // 1. Host traverses the index -> candidate bucket.
    index::TraversalStats stats;
    const auto candidate_ids = forest.candidates(queries.row(q), stats);
    scanned_sum += candidate_ids.size();

    // 2. The bucket's vectors are (in production: already) compiled as one
    //    board configuration; the AP scans them for this query.
    const knn::BinaryDataset bucket = corpus.subset(candidate_ids);
    core::EngineOptions opt;
    core::ApKnnEngine engine(bucket, opt);
    knn::BinaryDataset one(1, kDims);
    one.set_vector(0, queries.vector(q));
    const auto local = engine.search(one, kK);
    ap_cycles += engine.last_stats().simulated_cycles;

    // 3. Map bucket-local ids back to corpus ids and score recall.
    std::vector<knn::Neighbor> global;
    for (const auto& nb : local[0]) {
      global.push_back({candidate_ids[nb.id], nb.distance});
    }
    recall_sum += knn::recall_at_k(corpus, queries.row(q), kK, global);
  }

  util::TablePrinter table("Indexed AP search (per-query averages)");
  table.set_header({"metric", "value"});
  table.add_row({"documents scanned",
                 util::TablePrinter::fmt(
                     static_cast<double>(scanned_sum) / kQueries, 1) +
                     " of " + std::to_string(kDocs)});
  table.add_row({"recall@2 vs exhaustive scan",
                 util::TablePrinter::fmt(recall_sum / kQueries, 3)});
  table.add_row({"AP cycles per query",
                 util::TablePrinter::fmt(
                     static_cast<double>(ap_cycles) / kQueries, 0)});
  table.add_note("pruning trades recall for a ~" +
                 util::TablePrinter::fmt(
                     static_cast<double>(kDocs) * kQueries / scanned_sum, 1) +
                 "x smaller scan, mirroring Table V's indexed rows");
  table.print(std::cout);
  return 0;
}
