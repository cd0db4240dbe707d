#pragma once

#include <cstddef>

namespace apss::util {

/// ceil(a / b) for b > 0.
constexpr std::size_t ceil_div(std::size_t a, std::size_t b) {
  return (a + b - 1) / b;
}

}  // namespace apss::util
