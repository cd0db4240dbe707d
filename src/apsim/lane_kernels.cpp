// The stepping kernels (LaneWord<W> at every width) and the closed-form
// frame kernels' run-time dispatch between the portable build, its POPCNT
// build and the AVX-512 build in lane_kernels_avx512.cpp. This file is
// compiled WITHOUT vector target flags, so its kernels run on any
// architecture; the POPCNT clones carry their own target attribute.

#include "apsim/lane_word.hpp"

#include <cstdlib>

#include "apsim/lane_kernels_impl.hpp"

namespace apss::apsim {

const char* to_string(LaneWidth width) noexcept {
  switch (width) {
    case LaneWidth::k64: return "64";
    case LaneWidth::k256: return "256";
    case LaneWidth::k512: return "512";
  }
  return "?";
}

namespace {

bool simd_disabled_by_env() noexcept {
  const char* v = std::getenv("APSS_DISABLE_SIMD");
  return v != nullptr && v[0] != '\0' &&
         !(v[0] == '0' && v[1] == '\0');
}

const MatchCountKernels kPortableCounts = {
    detail::match_counts_impl, detail::two_class_counts_impl,
    detail::kth_floor_impl, detail::list_candidates_impl,
    detail::frame_front_end_impl, "portable"};

#if defined(__x86_64__) || defined(__i386__)
// The baseline ISA lacks POPCNT (std::popcount becomes a libgcc call); these
// clones of the same loops are compiled for it and picked at run time. The
// front end and the cut kernels count nothing, so this build shares the
// portable ones.
__attribute__((target("popcnt"))) void match_counts_popcnt(
    const std::uint64_t* lane_bits, const std::uint64_t* query,
    std::size_t row_words, std::size_t blocks, std::uint32_t* counts,
    std::uint32_t* maxima) {
  detail::match_counts_impl(lane_bits, query, row_words, blocks, counts,
                            maxima);
}

__attribute__((target("popcnt"))) void two_class_counts_popcnt(
    const std::uint64_t* lane_bits, const std::uint64_t* query,
    const std::uint64_t* exact, std::uint32_t base, std::size_t row_words,
    std::size_t lanes, std::uint32_t* counts, std::uint32_t* maxima) {
  detail::two_class_counts_impl(lane_bits, query, exact, base, row_words,
                                lanes, counts, maxima);
}

const MatchCountKernels kPopcntCounts = {
    match_counts_popcnt, two_class_counts_popcnt, detail::kth_floor_impl,
    detail::list_candidates_impl, detail::frame_front_end_impl, "popcnt"};
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

const MatchCountKernels& resolve_match_counts() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  if (!simd_disabled_by_env()) {
    const MatchCountKernels* avx512 = detail::avx512_match_counts();
    if (avx512 != nullptr && __builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512vbmi") &&
        __builtin_cpu_supports("avx512vpopcntdq") &&
        __builtin_cpu_supports("popcnt")) {
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
  k.isa = isa;
  k.or_rows = detail::or_rows_impl<LaneWord<W>>;
  k.counter_update = detail::counter_update_impl<LaneWord<W>>;
  return k;
}

// The 64-bit path is "scalar" (the original backend), the wider ones
// "portable".
const LaneKernels kScalar64 = portable_kernels<64>("scalar");
const LaneKernels kPortable256 = portable_kernels<256>("portable");
const LaneKernels kPortable512 = portable_kernels<512>("portable");

}  // namespace

LaneKernels resolve_lane_kernels(LaneWidth width) {
  switch (width) {
    case LaneWidth::k64: return kScalar64;
    case LaneWidth::k256: return kPortable256;
    case LaneWidth::k512: return kPortable512;
  }
  return kScalar64;
}

}  // namespace apss::apsim
