// AVX-512 lane kernels: 512 lanes per operation on one zmm register. Built
// with -mavx512f when the compiler supports it; a stub registry otherwise
// (the dispatcher then serves LaneWidth::k512 with the portable
// LaneWord<512> path). The lane kernels use only AVX512F instructions, so
// any AVX-512 CPU qualifies; nothing executes unless resolve_lane_kernels
// checked __builtin_cpu_supports("avx512f") first. The closed-form match
// count kernels also need VPOPCNTDQ, which resolve_match_counts checks.

#include "apsim/lane_word.hpp"

#if defined(__AVX512F__)

#include <immintrin.h>

#include "apsim/lane_kernels_impl.hpp"

namespace apss::apsim::detail {
namespace {

/// Vector policy over one unaligned 512-bit integer register; the same
/// bitwise contract as LaneWord<512>.
struct Avx512Word {
  static constexpr std::size_t kWords = 8;
  __m512i v;

  static Avx512Word load(const std::uint64_t* p) noexcept {
    return {_mm512_loadu_si512(p)};
  }
  void store(std::uint64_t* p) const noexcept { _mm512_storeu_si512(p, v); }
  static Avx512Word zero() noexcept { return {_mm512_setzero_si512()}; }
  friend Avx512Word operator|(Avx512Word a, Avx512Word b) noexcept {
    return {_mm512_or_si512(a.v, b.v)};
  }
  friend Avx512Word operator&(Avx512Word a, Avx512Word b) noexcept {
    return {_mm512_and_si512(a.v, b.v)};
  }
  friend Avx512Word operator^(Avx512Word a, Avx512Word b) noexcept {
    return {_mm512_xor_si512(a.v, b.v)};
  }
  Avx512Word andnot(Avx512Word mask) const noexcept {
    return {_mm512_andnot_si512(mask.v, v)};  // intrinsic is ~a & b
  }
  bool any() const noexcept { return _mm512_test_epi64_mask(v, v) != 0; }
};

constexpr LaneKernels make_kernels() {
  LaneKernels k;
  k.width = LaneWidth::k512;
  k.simd = true;
  k.isa = "avx512";
  k.or_rows = or_rows_impl<Avx512Word>;
  k.counter_update = counter_update_impl<Avx512Word>;
  return k;
}

const LaneKernels kAvx512Kernels = make_kernels();

/// Block b's 8 lane counts for match_counts_impl, one per 64-bit element:
/// word k of the block's lanes, ANDed with query word k, counted by VPOPCNTQ.
struct MultiClassBlocks {
  const std::uint64_t* lane_bits;
  const std::uint64_t* query;
  std::size_t row_words;

  __attribute__((target("avx512f,avx512vpopcntdq"), always_inline)) __m512i
  operator()(std::size_t b) const {
    const std::uint64_t* block = lane_bits + b * row_words * 8;
    __m512i h = _mm512_setzero_si512();
    for (std::size_t k = 0; k < row_words; ++k) {
      const __m512i hits = _mm512_and_si512(
          _mm512_loadu_si512(block + k * 8),
          _mm512_set1_epi64(static_cast<long long>(query[k])));
      h = _mm512_add_epi64(h, _mm512_popcnt_epi64(hits));
    }
    return h;
  }
};

/// Block b's 8 lane counts for two_class_counts_impl, pad lanes included:
/// base minus the VPOPCNTQ of (row ^ query) & exact, one VPTERNLOGQ per word
/// (truth table 0x28 over row, query, exact).
struct TwoClassBlocks {
  const std::uint64_t* lane_bits;
  const std::uint64_t* query;
  const std::uint64_t* exact;
  std::uint32_t base;
  std::size_t row_words;

  __attribute__((target("avx512f,avx512vpopcntdq"), always_inline)) __m512i
  operator()(std::size_t b) const {
    const std::uint64_t* block = lane_bits + b * row_words * 8;
    __m512i miss = _mm512_setzero_si512();
    for (std::size_t k = 0; k < row_words; ++k) {
      const __m512i differ = _mm512_ternarylogic_epi64(
          _mm512_loadu_si512(block + k * 8),
          _mm512_set1_epi64(static_cast<long long>(query[k])),
          _mm512_set1_epi64(static_cast<long long>(exact[k])), 0x28);
      miss = _mm512_add_epi64(miss, _mm512_popcnt_epi64(differ));
    }
    return _mm512_sub_epi64(_mm512_set1_epi64(base), miss);
  }
};

/// Pairs up 128-bit lanes: the result's lanes are the element-wise max of
/// a's lanes 0 and 1, of a's lanes 2 and 3, then the same two of b.
__attribute__((target("avx512f"), always_inline)) inline __m512i
max_lane_pairs(__m512i a, __m512i b) {
  return _mm512_max_epu64(_mm512_shuffle_i64x2(a, b, _MM_SHUFFLE(2, 0, 2, 0)),
                          _mm512_shuffle_i64x2(a, b, _MM_SHUFFLE(3, 1, 3, 1)));
}

/// Writes counts and block maxima with one block of 8 lanes per zmm
/// register, block_counts(b) giving block b's counts. Blocks go 8 at a time
/// so their maxima come out of one max tree: pairs of adjacent elements,
/// then pairs of 128-bit lanes twice, which leaves block j's maximum in
/// element j. Remaining blocks reduce one by one.
template <class BlockCounts>
__attribute__((target("avx512f,avx512vpopcntdq"), always_inline)) inline void
counts_and_maxima(const BlockCounts& block_counts, std::size_t blocks,
                  std::uint32_t* counts, std::uint32_t* block_max) {
  static_assert(kMatchBlockLanes == 8, "one block per 512-bit register");
  std::size_t b = 0;
  for (; b + 8 <= blocks; b += 8) {
    __m512i pair[4];
    for (std::size_t j = 0; j < 8; j += 2) {
      const __m512i h0 = block_counts(b + j);
      const __m512i h1 = block_counts(b + j + 1);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(counts + (b + j) * 8),
                          _mm512_cvtepi64_epi32(h0));
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(counts + (b + j + 1) * 8),
          _mm512_cvtepi64_epi32(h1));
      pair[j / 2] = _mm512_max_epu64(_mm512_unpacklo_epi64(h0, h1),
                                     _mm512_unpackhi_epi64(h0, h1));
    }
    const __m512i top = max_lane_pairs(max_lane_pairs(pair[0], pair[1]),
                                       max_lane_pairs(pair[2], pair[3]));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(block_max + b),
                        _mm512_cvtepi64_epi32(top));
  }
  for (; b < blocks; ++b) {
    const __m512i h = block_counts(b);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(counts + b * 8),
                        _mm512_cvtepi64_epi32(h));
    block_max[b] = static_cast<std::uint32_t>(_mm512_reduce_max_epu64(h));
  }
}

__attribute__((target("avx512f,avx512vpopcntdq"))) void match_counts_avx512(
    const std::uint64_t* lane_bits, const std::uint64_t* query,
    std::size_t row_words, std::size_t blocks, std::uint32_t* counts,
    std::uint32_t* block_max) {
  counts_and_maxima(MultiClassBlocks{lane_bits, query, row_words}, blocks,
                    counts, block_max);
}

__attribute__((target("avx512f,avx512vpopcntdq"))) void
two_class_counts_avx512(const std::uint64_t* lane_bits,
                        const std::uint64_t* query, const std::uint64_t* exact,
                        std::uint32_t base, std::size_t row_words,
                        std::size_t lanes, std::uint32_t* counts,
                        std::uint32_t* block_max) {
  const std::size_t blocks = (lanes + 7) / 8;
  counts_and_maxima(TwoClassBlocks{lane_bits, query, exact, base, row_words},
                    blocks, counts, block_max);
  // A zero row still counts base - popcount(query & exact): zero the pad
  // lanes of a partial last block and take its maximum over the live ones.
  // (Plain loops: a std algorithm instantiated here would be AVX-512 code
  // that other translation units could link to.)
  if (const std::size_t live = lanes % 8; live != 0) {
    std::uint32_t* last = counts + (blocks - 1) * 8;
    std::uint32_t top = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      last[i] = i < live ? last[i] : 0;
      top = last[i] > top ? last[i] : top;
    }
    block_max[blocks - 1] = top;
  }
}

const MatchCountKernels kAvx512Counts = {
    match_counts_avx512, two_class_counts_avx512, "avx512-vpopcntdq"};

}  // namespace

const LaneKernels* avx512_lane_kernels() noexcept { return &kAvx512Kernels; }
const MatchCountKernels* avx512_match_counts() noexcept {
  return &kAvx512Counts;
}

}  // namespace apss::apsim::detail

#else  // !defined(__AVX512F__)

namespace apss::apsim::detail {
const LaneKernels* avx512_lane_kernels() noexcept { return nullptr; }
const MatchCountKernels* avx512_match_counts() noexcept { return nullptr; }
}  // namespace apss::apsim::detail

#endif
