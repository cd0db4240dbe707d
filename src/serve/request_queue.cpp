#include "serve/request_queue.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace apss::serve {

RequestQueue::RequestQueue(std::size_t max_depth) : max_depth_(max_depth) {
  if (max_depth == 0) {
    throw std::invalid_argument("RequestQueue: max_depth must be >= 1");
  }
}

RequestQueue::PushResult RequestQueue::push(RequestPtr request) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) {
      return PushResult::kClosed;
    }
    if (queue_.size() >= max_depth_) {
      return PushResult::kFull;
    }
    queue_.push_back(std::move(request));
    high_water_ = std::max(high_water_, queue_.size());
  }
  cv_.notify_one();
  return PushResult::kAdmitted;
}

RequestPtr RequestQueue::pop_blocking() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return !queue_.empty() || closed_; });
  if (queue_.empty()) {
    return nullptr;
  }
  RequestPtr out = std::move(queue_.front());
  queue_.pop_front();
  return out;
}

RequestPtr RequestQueue::pop_until(
    std::chrono::steady_clock::time_point until) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (!cv_.wait_until(lock, until,
                      [&] { return !queue_.empty() || closed_; })) {
    return nullptr;  // batch window elapsed
  }
  if (queue_.empty()) {
    return nullptr;  // closed and drained
  }
  RequestPtr out = std::move(queue_.front());
  queue_.pop_front();
  return out;
}

std::vector<RequestPtr> RequestQueue::take_expired() {
  std::vector<RequestPtr> expired;
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = queue_.begin(); it != queue_.end();) {
    if ((*it)->deadline.expired()) {
      expired.push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  return expired;
}

void RequestQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
}

std::size_t RequestQueue::depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

std::size_t RequestQueue::high_water() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return high_water_;
}

}  // namespace apss::serve
