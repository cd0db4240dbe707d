// Portable lane kernels (LaneWord<W> instantiations for every width) and
// the runtime dispatch that picks between them and the SIMD translation
// units (lane_kernels_{avx2,avx512}.cpp). This file is compiled WITHOUT
// vector target flags, so the portable kernels run on any architecture —
// they are the semantics reference the width-sweep differential tests pin
// the SIMD variants against.

#include "apsim/lane_word.hpp"

#include <cstdlib>

#include "apsim/lane_kernels_impl.hpp"

namespace apss::apsim {

const char* to_string(LaneWidth width) noexcept {
  switch (width) {
    case LaneWidth::kAuto: return "auto";
    case LaneWidth::k64: return "64";
    case LaneWidth::k256: return "256";
    case LaneWidth::k512: return "512";
  }
  return "?";
}

bool parse_lane_width(std::string_view text, LaneWidth* out) noexcept {
  if (text == "auto") {
    *out = LaneWidth::kAuto;
  } else if (text == "64") {
    *out = LaneWidth::k64;
  } else if (text == "256") {
    *out = LaneWidth::k256;
  } else if (text == "512") {
    *out = LaneWidth::k512;
  } else {
    return false;
  }
  return true;
}

bool lane_simd_disabled_by_env() noexcept {
  const char* v = std::getenv("APSS_DISABLE_SIMD");
  return v != nullptr && v[0] != '\0' &&
         !(v[0] == '0' && v[1] == '\0');
}

#if defined(__x86_64__) || defined(__i386__)
bool cpu_supports_avx2() noexcept { return __builtin_cpu_supports("avx2"); }
bool cpu_supports_avx512() noexcept {
  return __builtin_cpu_supports("avx512f");
}
#else
bool cpu_supports_avx2() noexcept { return false; }
bool cpu_supports_avx512() noexcept { return false; }
#endif

namespace {

const MatchCountKernels kPortableCounts = {detail::match_counts_impl,
                                           detail::two_class_counts_impl};

#if defined(__x86_64__) || defined(__i386__)
// The baseline ISA lacks POPCNT (std::popcount becomes a libgcc call); these
// clones of the same loops are compiled for it and picked at run time.
__attribute__((target("popcnt"))) void match_counts_popcnt(
    const std::uint64_t* lane_bits, const std::uint64_t* query,
    std::size_t row_words, std::size_t blocks, std::uint32_t* counts,
    std::uint32_t* block_max) {
  detail::match_counts_impl(lane_bits, query, row_words, blocks, counts,
                            block_max);
}

__attribute__((target("popcnt"))) void two_class_counts_popcnt(
    const std::uint64_t* lane_bits, const std::uint64_t* query,
    const std::uint64_t* exact, std::uint32_t base, std::size_t row_words,
    std::size_t lanes, std::uint32_t* counts, std::uint32_t* block_max) {
  detail::two_class_counts_impl(lane_bits, query, exact, base, row_words,
                                lanes, counts, block_max);
}

const MatchCountKernels kPopcntCounts = {match_counts_popcnt,
                                         two_class_counts_popcnt};
#endif

}  // namespace

namespace detail {
const MatchCountKernels* popcnt_match_counts() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return &kPopcntCounts;
#else
  return nullptr;
#endif
}
}  // namespace detail

MatchCountKernels resolve_match_counts() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  if (!lane_simd_disabled_by_env()) {
    const MatchCountKernels* avx512 = detail::avx512_match_counts();
    if (avx512 != nullptr && cpu_supports_avx512() &&
        __builtin_cpu_supports("avx512vpopcntdq")) {
      return *avx512;
    }
    if (__builtin_cpu_supports("popcnt")) {
      return kPopcntCounts;
    }
  }
#endif
  return kPortableCounts;
}

namespace {

template <std::size_t W>
constexpr LaneKernels portable_kernels(const char* isa) {
  LaneKernels k;
  k.width = static_cast<LaneWidth>(W);
  k.simd = false;
  k.isa = isa;
  k.or_rows = detail::or_rows_impl<LaneWord<W>>;
  k.counter_update = detail::counter_update_impl<LaneWord<W>>;
  return k;
}

// The 64-bit path is "scalar" (the original backend), the wider portable
// paths are "portable" — what APSS_DISABLE_SIMD and non-x86 builds run.
const LaneKernels kScalar64 = portable_kernels<64>("scalar");
const LaneKernels kPortable256 = portable_kernels<256>("portable");
const LaneKernels kPortable512 = portable_kernels<512>("portable");

}  // namespace

LaneKernels resolve_lane_kernels(LaneWidth requested) {
  const bool no_simd = lane_simd_disabled_by_env();
  const LaneKernels* avx2 =
      !no_simd && cpu_supports_avx2() ? detail::avx2_lane_kernels() : nullptr;
  const LaneKernels* avx512 = !no_simd && cpu_supports_avx512()
                                  ? detail::avx512_lane_kernels()
                                  : nullptr;
  switch (requested) {
    case LaneWidth::kAuto:
      if (avx512 != nullptr) {
        return *avx512;
      }
      if (avx2 != nullptr) {
        return *avx2;
      }
      return kScalar64;
    case LaneWidth::k64:
      return kScalar64;
    case LaneWidth::k256:
      return avx2 != nullptr ? *avx2 : kPortable256;
    case LaneWidth::k512:
      return avx512 != nullptr ? *avx512 : kPortable512;
  }
  return kScalar64;
}

}  // namespace apss::apsim
