#pragma once
// Kernel bodies for the bit-parallel backend. The stepping kernels are
// templates over a lane-word type V, instantiated once per width with
// LaneWord<W> (lane_kernels.cpp). The dataflow is identical at every width,
// which is what makes the widths bit-identical by construction: only the
// number of 64-bit words touched per iteration changes. The closed-form
// front end, match counts and cut kernels below are the portable build:
// the POPCNT build shares or clones each of them, and the AVX-512 kernels
// must equal them.
//
// V must provide: kWords, load/store/zero, operator| & ^, andnot(mask)
// (= *this & ~mask), and any(). Callers guarantee ctx.words (and the
// `words` of or_rows) is a multiple of V::kWords and that every array is
// zero-padded past the live lanes, so no tail handling exists here.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "apsim/lane_word.hpp"

namespace apss::apsim::detail {

template <class V>
inline void or_rows_impl(std::uint64_t* dst, const std::uint64_t* src,
                         std::size_t words) {
  for (std::size_t w = 0; w < words; w += V::kWords) {
    (V::load(dst + w) | V::load(src + w)).store(dst + w);
  }
}

/// One cycle of the bit-sliced counter bank, W lanes per iteration — the
/// exact per-word dataflow of the original 64-bit loop (see
/// BatchSimulator::step, step 5):
///   roots   = ring (the L-cycle collector delay line output)
///   ring    = scratch (this cycle's packed match word enters the line)
///   inc     = (roots | sort_enable) & ~reset
///   planes += inc (ripple carry; saturate past the top plane)
///   reset  -> reload the bias
///   pulse   = rising edge of (count >= threshold)
/// The only difference at W > 64: the ripple-carry early exit triggers per
/// BLOCK (all W lanes' carries zero) instead of per word — more work in
/// rare carry-skewed blocks, identical bits always.
template <class V>
inline void counter_update_impl(const LaneCounterCtx& ctx) {
  const std::size_t stride = ctx.words;
  for (std::size_t w = 0; w < ctx.words; w += V::kWords) {
    const V roots = V::load(ctx.ring + w);
    V::load(ctx.scratch + w).store(ctx.ring + w);
    const V valid = V::load(ctx.valid + w);
    const V reset = ctx.eof_now ? valid : V::zero();
    V inc = roots;
    if (ctx.sort_now) {
      inc = inc | valid;
    }
    inc = inc.andnot(reset);

    V add = inc;
    std::uint32_t q = 0;
    for (; q < ctx.plane_count && add.any(); ++q) {
      std::uint64_t* pw = ctx.planes + q * stride + w;
      const V plane = V::load(pw);
      (plane ^ add).store(pw);
      add = add & plane;  // carry out of plane q
    }
    if (add.any()) {  // overflow: pin the count at its (>= threshold) max
      for (std::uint32_t r = 0; r < ctx.plane_count; ++r) {
        std::uint64_t* pw = ctx.planes + r * stride + w;
        (V::load(pw) | add).store(pw);
      }
    }
    if (ctx.eof_now) {
      for (std::uint32_t r = 0; r < ctx.plane_count; ++r) {
        std::uint64_t* pw = ctx.planes + r * stride + w;
        V plane = V::load(pw).andnot(reset);
        if ((ctx.bias >> r) & 1) {
          plane = plane | reset;
        }
        plane.store(pw);
      }
    }
    const V cond = V::load(ctx.planes + ctx.cond_plane * stride + w) |
                   V::load(ctx.planes + (ctx.cond_plane + 1) * stride + w);
    const V prev = V::load(ctx.cond_prev + w);
    cond.andnot(prev).store(ctx.pulse + w);  // rising edge -> pulse
    cond.store(ctx.cond_prev + w);
  }
}

/// Bit 0 of every byte.
inline constexpr std::uint64_t kByteLowBits = 0x0101010101010101ull;
/// Multiplying a word whose bytes are each 0 or 1 by this moves byte j's
/// bit to bit 56 + j. Every partial product lands on a bit of its own, so
/// nothing carries into the top byte, which holds the 8 bits in order.
inline constexpr std::uint64_t kGatherByteLowBits = 0x0102040810204080ull;

/// The closed-form frame's front end (see FrameFrontEnd): one pass over
/// the symbols for a stray SOF or EOF, then the query masks from the data
/// symbols' class bits, 8 symbols at a time: byte j of `accepts` holds 8
/// class bits of symbol j, and one multiply gathers bit c of all 8 into
/// class c's byte. The last dims % 8 symbols go one by one. Reads
/// sym_classes only.
inline bool frame_front_end_impl(const std::uint8_t* frame, std::size_t length,
                                 std::size_t dims, std::uint8_t sof,
                                 std::uint8_t eof,
                                 const std::uint16_t* sym_classes,
                                 const std::uint8_t* /*class_bytes*/,
                                 std::size_t masks, std::uint64_t* query) {
  std::uint8_t stray = 0;
  for (std::size_t i = 0; i < length; ++i) {
    stray |= static_cast<std::uint8_t>((frame[i] == sof) | (frame[i] == eof));
  }
  if (stray != 0) {
    return false;
  }
  const std::size_t dw = (dims + 63) / 64;
  std::fill(query, query + masks * dw, 0);
  const std::size_t whole = dims - dims % 8;
  for (std::size_t i = 0; i < whole; i += 8) {
    for (std::size_t c0 = 0; c0 < masks; c0 += 8) {
      std::uint64_t accepts = 0;
#pragma GCC unroll 8
      for (std::size_t j = 0; j < 8; ++j) {
        accepts |= std::uint64_t{static_cast<std::uint8_t>(
                       sym_classes[frame[i + j]] >> c0)}
                   << (8 * j);
      }
      for (std::size_t c = c0; c < std::min(c0 + 8, masks); ++c) {
        const std::uint64_t bits = accepts >> (c - c0) & kByteLowBits;
        query[c * dw + i / 64] |= (bits * kGatherByteLowBits >> 56)
                                  << (i % 64);
      }
    }
  }
  for (std::size_t i = whole; i < dims; ++i) {
    std::uint16_t accept = sym_classes[frame[i]];
    while (accept != 0) {
      const auto c = static_cast<std::size_t>(std::countr_zero(accept));
      accept &= static_cast<std::uint16_t>(accept - 1);
      query[c * dw + i / 64] |= std::uint64_t{1} << (i % 64);
    }
  }
  return true;
}

/// Writes counts and group maxima (see LaneMatchCounts) for `blocks`
/// blocks, block_counts(b, h) filling block b's kMatchBlockLanes counts.
/// A group's running maxima are kept in the sweep's own loop, one
/// element-wise max per block: a separate pass would read every count
/// again. The lane loops here and in the block functions below are
/// unrolled whole, so the 8 lane sums stay in registers; left to itself,
/// gcc adds each popcount to a stack slot.
template <class BlockCounts>
[[gnu::always_inline]] inline void counts_and_maxima_impl(
    const BlockCounts& block_counts, std::size_t blocks, std::uint32_t* counts,
    std::uint32_t* maxima) {
  const std::size_t grouped = blocks - blocks % kMatchGroupBlocks;
  std::uint32_t h[kMatchBlockLanes];
  for (std::size_t g = 0; g < grouped; g += kMatchGroupBlocks) {
    std::uint32_t top[kMatchBlockLanes] = {};
    for (std::size_t b = g; b < g + kMatchGroupBlocks; ++b) {
      block_counts(b, h);
#pragma GCC unroll 8
      for (std::size_t i = 0; i < kMatchBlockLanes; ++i) {
        counts[b * kMatchBlockLanes + i] = h[i];
        top[i] = h[i] > top[i] ? h[i] : top[i];
      }
    }
#pragma GCC unroll 8
    for (std::size_t i = 0; i < kMatchBlockLanes; ++i) {
      maxima[g + i] = top[i];
    }
  }
  for (std::size_t b = grouped; b < blocks; ++b) {
    block_counts(b, h);
    std::uint32_t top = 0;
#pragma GCC unroll 8
    for (std::size_t i = 0; i < kMatchBlockLanes; ++i) {
      counts[b * kMatchBlockLanes + i] = h[i];
      top = h[i] > top ? h[i] : top;
    }
    maxima[b] = top;
  }
}

/// The closed-form frame's per-lane match counts and group maxima (see
/// LaneMatchCounts): one popcount per (lane, row word), kMatchBlockLanes
/// independent lane sums per block so the fixed inner loop pipelines (or
/// vectorizes).
[[gnu::always_inline]] inline void match_counts_impl(
    const std::uint64_t* lane_bits, const std::uint64_t* query,
    std::size_t row_words, std::size_t blocks, std::uint32_t* counts,
    std::uint32_t* maxima) {
  const auto block_counts = [&](std::size_t b, std::uint32_t* h)
                                __attribute__((always_inline)) {
    const std::uint64_t* block = lane_bits + b * row_words * kMatchBlockLanes;
#pragma GCC unroll 8
    for (std::size_t i = 0; i < kMatchBlockLanes; ++i) {
      h[i] = 0;
    }
    for (std::size_t k = 0; k < row_words; ++k) {
#pragma GCC unroll 8
      for (std::size_t i = 0; i < kMatchBlockLanes; ++i) {
        h[i] += static_cast<std::uint32_t>(
            std::popcount(block[k * kMatchBlockLanes + i] & query[k]));
      }
    }
  };
  counts_and_maxima_impl(block_counts, blocks, counts, maxima);
}

/// The two-class closed-form counts (see TwoClassMatchCounts): one popcount
/// of (row ^ query) & exact per (lane, row word), subtracted from base.
/// Pad lanes are zeroed by their position, since a zero row still counts.
[[gnu::always_inline]] inline void two_class_counts_impl(
    const std::uint64_t* lane_bits, const std::uint64_t* query,
    const std::uint64_t* exact, std::uint32_t base, std::size_t row_words,
    std::size_t lanes, std::uint32_t* counts, std::uint32_t* maxima) {
  const auto block_counts = [&](std::size_t b, std::uint32_t* h)
                                __attribute__((always_inline)) {
    const std::uint64_t* block = lane_bits + b * row_words * kMatchBlockLanes;
    std::uint32_t miss[kMatchBlockLanes] = {};
    for (std::size_t k = 0; k < row_words; ++k) {
#pragma GCC unroll 8
      for (std::size_t i = 0; i < kMatchBlockLanes; ++i) {
        miss[i] += static_cast<std::uint32_t>(std::popcount(
            (block[k * kMatchBlockLanes + i] ^ query[k]) & exact[k]));
      }
    }
    const std::size_t live = lanes - b * kMatchBlockLanes;
#pragma GCC unroll 8
    for (std::size_t i = 0; i < kMatchBlockLanes; ++i) {
      h[i] = i < live ? base - miss[i] : 0;
    }
  };
  counts_and_maxima_impl(block_counts,
                         (lanes + kMatchBlockLanes - 1) / kMatchBlockLanes,
                         counts, maxima);
}

/// The block floor (see KthFloor): binary search for the largest v in
/// [lo, hi] that k entries reach.
inline std::uint32_t kth_floor_impl(const std::uint32_t* maxima,
                                    std::size_t entries, std::size_t k,
                                    std::uint32_t lo, std::uint32_t hi) {
  while (lo < hi) {
    const std::uint32_t mid = hi - (hi - lo) / 2;  // lo < mid <= hi
    std::size_t reach = 0;
    for (std::size_t e = 0; e < entries; ++e) {
      reach += static_cast<std::size_t>(maxima[e] >= mid);
    }
    if (reach >= k) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

/// The candidate list (see ListCandidates). Lane i of a group's blocks can
/// reach the floor only if entry i does, so a group visits only those lane
/// positions, block by block; a block after the last whole group is
/// visited whole when its maximum reaches the floor. Branch-free per lane:
/// every visited lane is written, and the next one overwrites it unless it
/// reaches the floor.
inline std::size_t list_candidates_impl(const std::uint32_t* counts,
                                        const std::uint32_t* maxima,
                                        std::size_t blocks,
                                        std::uint32_t floor,
                                        std::uint32_t* out) {
  std::size_t listed = 0;
  const auto visit = [&](std::size_t l) {
    out[listed] = static_cast<std::uint32_t>(l);
    listed += static_cast<std::size_t>(counts[l] >= floor);
  };
  const std::size_t grouped = blocks - blocks % kMatchGroupBlocks;
  for (std::size_t g = 0; g < grouped; g += kMatchGroupBlocks) {
    unsigned reach = 0;  // bit i: entry g + i reaches the floor
    for (std::size_t i = 0; i < kMatchBlockLanes; ++i) {
      reach |= static_cast<unsigned>(maxima[g + i] >= floor) << i;
    }
    for (std::size_t b = g; reach != 0 && b < g + kMatchGroupBlocks; ++b) {
      for (unsigned bits = reach; bits != 0; bits &= bits - 1) {
        visit(b * kMatchBlockLanes +
              static_cast<std::size_t>(std::countr_zero(bits)));
      }
    }
  }
  for (std::size_t b = grouped; b < blocks; ++b) {
    if (maxima[b] >= floor) {
      for (std::size_t i = 0; i < kMatchBlockLanes; ++i) {
        visit(b * kMatchBlockLanes + i);
      }
    }
  }
  return listed;
}

}  // namespace apss::apsim::detail
