// AVX-512 kernels for the closed-form frame path: the front end, 64
// symbols per register (the template check and every class's query mask
// by table lookup), the VPOPCNTDQ match-count sweep, one block of 8 lanes
// per zmm register, and the cut's block floor and candidate list, 16
// counts per register. Built with -mavx512f when the compiler supports it;
// a stub registry otherwise (resolve_match_counts then picks the POPCNT or
// portable build). Nothing here executes unless resolve_match_counts
// checked the CPU for avx512f, avx512bw, avx512vbmi, avx512vpopcntdq and
// popcnt first. Scalar popcounts use __builtin_popcount: a std algorithm
// instantiated here would be AVX-512 code that other translation units
// could link to.

#include "apsim/lane_word.hpp"

#if defined(__AVX512F__)

#include <immintrin.h>

namespace apss::apsim::detail {
namespace {

#define APSS_VPOPCNT \
  __attribute__((target("avx512f,avx512vpopcntdq,popcnt"), always_inline))

/// Block b's 8 lane counts for match_counts_impl, one per 64-bit element:
/// word k of the block's lanes, ANDed with query word k, counted by VPOPCNTQ.
struct MultiClassBlocks {
  const std::uint64_t* lane_bits;
  const std::uint64_t* query;
  std::size_t row_words;

  APSS_VPOPCNT __m512i operator()(std::size_t b) const {
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
  /// The counts of two blocks from their packed sums.
  APSS_VPOPCNT __m512i finish(__m512i h, __mmask16) const { return h; }
};

/// The VPOPCNTQ of (row ^ query) & exact, one VPTERNLOGQ (truth table 0x28
/// over row, query, exact) per word.
APSS_VPOPCNT inline __m512i misses(const std::uint64_t* row, __m512i query,
                                   __m512i exact) {
  return _mm512_popcnt_epi64(_mm512_ternarylogic_epi64(
      _mm512_loadu_si512(row), query, exact, 0x28));
}

/// Block b's 8 lane misses for two_class_counts_impl, pad lanes included,
/// one per 64-bit element. kWords > 0 fixes the row length, and the query
/// and exact words are broadcast once per call instead of once per block;
/// kWords = 0 reads row_words and broadcasts per block.
template <std::size_t kWords>
struct TwoClassBlocks {
  const std::uint64_t* lane_bits;
  const std::uint64_t* query;
  const std::uint64_t* exact;
  std::size_t row_words;
  __m512i base;  ///< 16 x base
  __m512i query_words[kWords == 0 ? 1 : kWords];
  __m512i exact_words[kWords == 0 ? 1 : kWords];

  APSS_VPOPCNT TwoClassBlocks(const std::uint64_t* lane_bits_in,
                              const std::uint64_t* query_in,
                              const std::uint64_t* exact_in,
                              std::uint32_t base_in, std::size_t row_words_in)
      : lane_bits(lane_bits_in),
        query(query_in),
        exact(exact_in),
        row_words(row_words_in),
        base(_mm512_set1_epi32(static_cast<int>(base_in))) {
    for (std::size_t k = 0; k < kWords; ++k) {
      query_words[k] = _mm512_set1_epi64(static_cast<long long>(query[k]));
      exact_words[k] = _mm512_set1_epi64(static_cast<long long>(exact[k]));
    }
  }

  APSS_VPOPCNT __m512i operator()(std::size_t b) const {
    if constexpr (kWords != 0) {
      const std::uint64_t* block = lane_bits + b * kWords * 8;
      __m512i miss = misses(block, query_words[0], exact_words[0]);
      for (std::size_t k = 1; k < kWords; ++k) {
        miss = _mm512_add_epi64(
            miss, misses(block + k * 8, query_words[k], exact_words[k]));
      }
      return miss;
    } else {
      const std::uint64_t* block = lane_bits + b * row_words * 8;
      __m512i miss = _mm512_setzero_si512();
      for (std::size_t k = 0; k < row_words; ++k) {
        miss = _mm512_add_epi64(
            miss,
            misses(block + k * 8,
                   _mm512_set1_epi64(static_cast<long long>(query[k])),
                   _mm512_set1_epi64(static_cast<long long>(exact[k]))));
      }
      return miss;
    }
  }
  /// The counts of two blocks from their packed misses: base - miss on the
  /// `live` lanes, 0 on the pad lanes (a zero row still misses).
  APSS_VPOPCNT __m512i finish(__m512i miss, __mmask16 live) const {
    return _mm512_maskz_sub_epi32(live, base, miss);
  }
};

/// The mask of the live lanes among the 16 from lane `first`.
APSS_VPOPCNT inline __mmask16 live_lanes(std::size_t lanes, std::size_t first) {
  const std::size_t left = lanes - first;
  return static_cast<__mmask16>(left >= 16 ? 0xffffu : (1u << left) - 1);
}

/// Writes counts and group maxima (see LaneMatchCounts) for the blocks
/// holding `lanes` lanes. Blocks go in pairs: one VPERMT2D packs two
/// blocks' 64-bit sums into 16 32-bit lanes, which blocks.finish turns
/// into counts and one store writes. A group's maxima are one VPMAXUD per
/// pair and one of the two halves at the group's end. The blocks after the
/// last whole group reduce one by one.
template <class Blocks>
APSS_VPOPCNT inline void counts_and_maxima(const Blocks& blocks_of,
                                           std::size_t lanes,
                                           std::uint32_t* counts,
                                           std::uint32_t* maxima) {
  static_assert(kMatchBlockLanes == 8 && kMatchGroupBlocks == 8,
                "one block per 512-bit register, four pairs per group");
  const __m512i pack = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18,
                                         20, 22, 24, 26, 28, 30);
  const std::size_t blocks = (lanes + 7) / 8;
  const std::size_t grouped = blocks - blocks % 8;
  std::size_t b = 0;
  for (; b < grouped; b += 8) {
    __m512i top = _mm512_setzero_si512();
    for (std::size_t j = b; j < b + 8; j += 2) {
      const __m512i h = blocks_of.finish(
          _mm512_permutex2var_epi32(blocks_of(j), pack, blocks_of(j + 1)),
          live_lanes(lanes, j * 8));
      _mm512_storeu_si512(counts + j * 8, h);
      top = _mm512_max_epu32(top, h);
    }
    // Elements 0-7 of top hold lanes 0-7 of the even blocks, 8-15 those of
    // the odd ones.
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(maxima + b),
        _mm256_max_epu32(_mm512_castsi512_si256(top),
                         _mm512_extracti64x4_epi64(top, 1)));
  }
  for (; b < blocks; b += 2) {
    const bool pair = b + 1 < blocks;
    const __m512i h0 = blocks_of(b);
    const __m512i h = blocks_of.finish(
        _mm512_permutex2var_epi32(h0, pack, pair ? blocks_of(b + 1) : h0),
        live_lanes(lanes, b * 8));
    _mm512_mask_storeu_epi32(counts + b * 8, pair ? 0xffff : 0x00ff, h);
    maxima[b] = _mm512_mask_reduce_max_epu32(0x00ff, h);
    if (pair) {
      maxima[b + 1] = _mm512_mask_reduce_max_epu32(0xff00, h);
    }
  }
}

__attribute__((target("avx512f,avx512vpopcntdq,popcnt"))) void
match_counts_avx512(const std::uint64_t* lane_bits, const std::uint64_t* query,
                    std::size_t row_words, std::size_t blocks,
                    std::uint32_t* counts, std::uint32_t* maxima) {
  counts_and_maxima(MultiClassBlocks{lane_bits, query, row_words}, blocks * 8,
                    counts, maxima);
}

__attribute__((target("avx512f,avx512vpopcntdq,popcnt"))) void
two_class_counts_avx512(const std::uint64_t* lane_bits,
                        const std::uint64_t* query, const std::uint64_t* exact,
                        std::uint32_t base, std::size_t row_words,
                        std::size_t lanes, std::uint32_t* counts,
                        std::uint32_t* maxima) {
  // Two words per row is d = 65..128, every ledger workload's frame.
  if (row_words == 2) {
    counts_and_maxima(
        TwoClassBlocks<2>(lane_bits, query, exact, base, row_words), lanes,
        counts, maxima);
  } else {
    counts_and_maxima(
        TwoClassBlocks<0>(lane_bits, query, exact, base, row_words), lanes,
        counts, maxima);
  }
}

/// The entries >= v among `entries` maxima: 16 per compare, counted in the
/// elements of one register and summed at the end.
APSS_VPOPCNT inline std::size_t entries_reaching(const std::uint32_t* maxima,
                                                 std::size_t entries,
                                                 std::uint32_t v) {
  const __m512i floor = _mm512_set1_epi32(static_cast<int>(v));
  const __m512i one = _mm512_set1_epi32(1);
  __m512i reach = _mm512_setzero_si512();
  std::size_t e = 0;
  for (; e + 16 <= entries; e += 16) {
    reach = _mm512_mask_add_epi32(
        reach, _mm512_cmpge_epu32_mask(_mm512_loadu_si512(maxima + e), floor),
        reach, one);
  }
  const auto tail = static_cast<__mmask16>((1u << (entries - e)) - 1);
  reach = _mm512_mask_add_epi32(
      reach,
      _mm512_mask_cmpge_epu32_mask(
          tail, _mm512_maskz_loadu_epi32(tail, maxima + e), floor),
      reach, one);
  return static_cast<std::size_t>(_mm512_reduce_add_epi32(reach));
}

__attribute__((target("avx512f,avx512vpopcntdq,popcnt"))) std::uint32_t
kth_floor_avx512(const std::uint32_t* maxima, std::size_t entries,
                 std::size_t k, std::uint32_t lo, std::uint32_t hi) {
  while (lo < hi) {
    const std::uint32_t mid = hi - (hi - lo) / 2;  // lo < mid <= hi
    if (entries_reaching(maxima, entries, mid) >= k) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

/// Lists the lanes among the 16 from lane `first` (those in `load`) whose
/// count reaches `floor`: one compare, then their indices compressed into
/// one whole-register store at out + listed.
APSS_VPOPCNT inline void list_lanes(const std::uint32_t* counts,
                                    std::size_t first, __mmask16 load,
                                    __m512i floor, std::uint32_t* out,
                                    std::size_t& listed) {
  const __m512i lane_ids = _mm512_add_epi32(
      _mm512_set1_epi32(static_cast<int>(first)),
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15));
  const __mmask16 keep = _mm512_mask_cmpge_epu32_mask(
      load, _mm512_maskz_loadu_epi32(load, counts + first), floor);
  _mm512_storeu_si512(out + listed,
                      _mm512_maskz_compress_epi32(keep, lane_ids));
  listed += static_cast<std::size_t>(__builtin_popcount(keep));
}

/// Lists the candidates of a cut frame (see ListCandidates). Up to 64
/// groups at a time, a bitmap marks the groups with an entry at or above
/// the floor, two groups per compare and without a branch, so the groups
/// are read in one loop over the bitmap's set bits: a branch per group
/// would mispredict on the frames where about half the groups hold a
/// candidate.
__attribute__((target("avx512f,avx512vpopcntdq,popcnt"))) std::size_t
list_candidates_avx512(const std::uint32_t* counts, const std::uint32_t* maxima,
                       std::size_t blocks, std::uint32_t floor_in,
                       std::uint32_t* out) {
  const __m512i floor = _mm512_set1_epi32(static_cast<int>(floor_in));
  const std::size_t grouped = blocks - blocks % 8;
  std::size_t listed = 0;
  for (std::size_t g0 = 0; g0 < grouped; g0 += 8 * 64) {
    const std::size_t end = grouped - g0 < 8 * 64 ? grouped : g0 + 8 * 64;
    std::uint64_t visit = 0;  // bit i: group g0 / 8 + i
    for (std::size_t b = g0; b < end; b += 16) {
      const auto two = static_cast<__mmask16>(end - b >= 16 ? 0xffff : 0x00ff);
      const unsigned reach = _mm512_mask_cmpge_epu32_mask(
          two, _mm512_maskz_loadu_epi32(two, maxima + b), floor);
      visit |= std::uint64_t{(reach & 0xffu) != 0} << ((b - g0) / 8);
      visit |= std::uint64_t{(reach >> 8) != 0} << ((b - g0) / 8 + 1);
    }
    for (; visit != 0; visit &= visit - 1) {
      const std::size_t b =
          g0 + 8 * static_cast<std::size_t>(__builtin_ctzll(visit));
      for (std::size_t l = b * 8; l < (b + 8) * 8; l += 16) {
        list_lanes(counts, l, 0xffff, floor, out, listed);
      }
    }
  }
  for (std::size_t b = grouped; b < blocks; ++b) {
    if (maxima[b] >= floor_in) {
      list_lanes(counts, b * 8, 0x00ff, floor, out, listed);
    }
  }
  return listed;
}

#undef APSS_VPOPCNT

#define APSS_VBMI \
  __attribute__((target("avx512f,avx512bw,avx512vbmi"), always_inline))

/// The mask of the first min(n, 64) bytes of a register.
APSS_VBMI inline __mmask64 first_bytes(std::size_t n) {
  return n >= 64 ? ~__mmask64{0} : (__mmask64{1} << n) - 1;
}

/// The 64 symbols from frame + pos that lie before `length` (zero past
/// it), and any SOF or EOF among them ORed into `stray`: one masked load
/// and two VPCMPEQB.
APSS_VBMI inline __m512i load_symbols(const std::uint8_t* frame,
                                      std::size_t pos, std::size_t length,
                                      __m512i sof, __m512i eof,
                                      __mmask64& stray) {
  const __mmask64 load = first_bytes(length - pos);
  const __m512i symbols = _mm512_maskz_loadu_epi8(load, frame + pos);
  stray |= _mm512_mask_cmpeq_epi8_mask(load, symbols, sof) |
           _mm512_mask_cmpeq_epi8_mask(load, symbols, eof);
  return symbols;
}

/// Eight classes' query words from one 256-byte class-byte table: each
/// symbol's class byte by two VPERMI2B lookups on its low 7 bits, one into
/// each half of the table, blended on its bit 7; then class c0 + b's word
/// is one VPTESTMB of bit b, for the classes below `end`, masked to the
/// `data` symbols. The table is read from memory at each call, not copied
/// into a local array once: gcc compiles that copy to a rep movs to the
/// stack and four reloads of it.
APSS_VBMI inline void write_query_words(__m512i symbols, __mmask64 high,
                                        const std::uint8_t* table,
                                        __mmask64 data, std::size_t c0,
                                        std::size_t end, std::size_t dw,
                                        std::uint64_t* query) {
  const __m512i bytes = _mm512_mask_blend_epi8(
      high,
      _mm512_permutex2var_epi8(_mm512_loadu_si512(table), symbols,
                               _mm512_loadu_si512(table + 64)),
      _mm512_permutex2var_epi8(_mm512_loadu_si512(table + 128), symbols,
                               _mm512_loadu_si512(table + 192)));
  for (std::size_t c = c0; c < end; ++c) {
    query[c * dw] = _mm512_mask_test_epi8_mask(
        data, bytes, _mm512_set1_epi8(static_cast<char>(1u << (c - c0))));
  }
}

/// The front end (see FrameFrontEnd), 64 symbols per step: the data steps
/// write one word of every class's query mask each and check their
/// symbols, including the fills that share the last data step's register;
/// the fill steps only check. Reads class_bytes only, classes 8 to 15's
/// table only when a mask above 8 is asked for.
__attribute__((target("avx512f,avx512bw,avx512vbmi"))) bool
frame_front_end_avx512(const std::uint8_t* frame, std::size_t length,
                       std::size_t dims, std::uint8_t sof_in,
                       std::uint8_t eof_in,
                       const std::uint16_t* /*sym_classes*/,
                       const std::uint8_t* class_bytes, std::size_t masks,
                       std::uint64_t* query) {
  const __m512i sof = _mm512_set1_epi8(static_cast<char>(sof_in));
  const __m512i eof = _mm512_set1_epi8(static_cast<char>(eof_in));
  const bool upper = masks > 8;
  const std::size_t dw = (dims + 63) / 64;
  __mmask64 stray = 0;
  std::size_t pos = 0;
  for (std::size_t w = 0; w < dw; ++w, pos += 64) {
    const __m512i symbols = load_symbols(frame, pos, length, sof, eof, stray);
    const __mmask64 high = _mm512_movepi8_mask(symbols);
    const __mmask64 data = first_bytes(dims - pos);
    write_query_words(symbols, high, class_bytes, data, 0, upper ? 8 : masks,
                      dw, query + w);
    if (upper) {
      write_query_words(symbols, high, class_bytes + 256, data, 8, masks, dw,
                        query + w);
    }
  }
  for (; pos < length; pos += 64) {
    load_symbols(frame, pos, length, sof, eof, stray);
  }
  return stray == 0;
}

#undef APSS_VBMI

const MatchCountKernels kAvx512Counts = {
    match_counts_avx512, two_class_counts_avx512, kth_floor_avx512,
    list_candidates_avx512, frame_front_end_avx512, "avx512-vpopcntdq"};

}  // namespace

const MatchCountKernels* avx512_match_counts() noexcept {
  return &kAvx512Counts;
}

}  // namespace apss::apsim::detail

#else  // !defined(__AVX512F__)

namespace apss::apsim::detail {
const MatchCountKernels* avx512_match_counts() noexcept { return nullptr; }
}  // namespace apss::apsim::detail

#endif
