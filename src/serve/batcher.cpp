#include "serve/batcher.hpp"

#include <stdexcept>
#include <utility>

namespace apss::serve {

Batcher::Batcher(RequestQueue& queue, std::size_t max_batch, double window_ms)
    : queue_(queue), max_batch_(max_batch), window_ms_(window_ms) {
  if (max_batch == 0) {
    throw std::invalid_argument("Batcher: max_batch must be >= 1");
  }
}

std::vector<RequestPtr> Batcher::next_batch() const {
  std::vector<RequestPtr> batch;
  RequestPtr first = queue_.pop_blocking();
  if (first == nullptr) {
    return batch;  // closed and drained
  }
  batch.reserve(max_batch_);
  batch.push_back(std::move(first));
  // The window opens when the first request is taken, not when it was
  // submitted: a request that waited queued behind earlier batches must
  // not have its batch cut short for it.
  const auto flush_at =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(
              window_ms_ > 0 ? window_ms_ : 0));
  while (batch.size() < max_batch_) {
    RequestPtr next = queue_.pop_until(flush_at);
    if (next == nullptr) {
      break;  // window elapsed, or queue closed and drained
    }
    batch.push_back(std::move(next));
  }
  return batch;
}

}  // namespace apss::serve
