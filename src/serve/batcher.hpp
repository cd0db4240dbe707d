#pragma once
// Dynamic batching policy of the serving core (docs/ROBUSTNESS.md
// "Serving").
//
// Concurrent queries are coalesced into shared query frames — the
// data-parallel argument of Sin'ya & Matsuzaki (PAPERS.md): one pass of a
// compiled configuration amortizes over every query riding the frame. The
// flush rule is the classic latency/throughput trade: a batch closes on
// whichever comes first of
//   - max_batch requests collected, or
//   - batch_window_ms elapsed since the FIRST request was taken
// so an idle server adds at most one window of latency to a lone request,
// while a saturated server runs full frames back to back. A closed
// (draining) queue flushes immediately — partial batches never wait out
// the window during shutdown.

#include <cstddef>
#include <vector>

#include "serve/request_queue.hpp"

namespace apss::serve {

class Batcher {
 public:
  /// `max_batch` >= 1; `window_ms` <= 0 disables the wait (every batch is
  /// whatever is instantaneously available, at least one request).
  Batcher(RequestQueue& queue, std::size_t max_batch, double window_ms);

  /// Blocks for the next batch (>= 1 request); workers share one Batcher.
  /// Returns an empty vector once the queue is closed and drained — the
  /// worker's exit signal.
  std::vector<RequestPtr> next_batch() const;

 private:
  RequestQueue& queue_;
  const std::size_t max_batch_;
  const double window_ms_;
};

}  // namespace apss::serve
