#pragma once
// Wide-lane words for the bit-parallel batch backend. A BatchProgram packs
// one macro per BIT; the interpreter's state vectors are flat arrays of
// 64-bit words, and every per-cycle operation is a pure bitwise map over
// them — so the stepping width is a free parameter: stepping 256 or 512
// lanes per operation instead of 64 changes wall-clock only, never a single
// ReportEvent.
//
// Two layers keep that guarantee checkable:
//
//  * LaneWord<W> — the portable W-bit lane word: an array of W/64 uint64_t
//    with bitwise ops written as fixed-trip loops any compiler can unroll.
//    It is the one stepping kernel of each width, on every architecture.
//  * LaneKernels — the two hot per-cycle loops (packed-row OR and the
//    bit-sliced counter update) of one width behind function pointers;
//    resolve_lane_kernels() returns them for the requested width.
//
// Only symbols outside closed-form frames are stepped, and every frame the
// engine streams takes the closed form (docs/SIMULATOR_SEMANTICS.md). Those
// frames run the front-end, match-count and cut kernels declared below, the
// only SIMD code: AVX-512 or POPCNT builds picked by resolve_match_counts()
// at run time.
// APSS_DISABLE_SIMD=1 in the environment forces their portable build.
//
// Lane layout is width-agnostic: lane l always lives at 64-bit word l/64,
// bit l%64. A wider word just processes W/64 consecutive words per
// operation, so programs (and their on-disk artifacts, docs/ARTIFACTS.md)
// never depend on the width they will run at.

#include <cstddef>
#include <cstdint>

namespace apss::apsim {

/// 64-bit words per 512-bit block — the alignment quantum BatchProgram pads
/// its packed row table to, so every resolved width divides the storage.
inline constexpr std::size_t kLaneBlockWords = 8;

/// Lane-word width BatchSimulator steps at.
enum class LaneWidth : std::uint16_t {
  k64 = 64,    ///< the classic one-word scalar path
  k256 = 256,  ///< four words per step
  k512 = 512,  ///< eight words per step
};

const char* to_string(LaneWidth width) noexcept;

/// The W-bit lane word: W/64 little-endian 64-bit limbs, lane (w * 64 + b)
/// at limb w bit b — the same layout BatchProgram packs its rows in, so
/// loads are plain memcpy-like reads. All ops are bitwise and lane-local.
template <std::size_t W>
struct LaneWord {
  static_assert(W == 64 || W == 256 || W == 512, "unsupported lane width");
  static constexpr std::size_t kWords = W / 64;

  std::uint64_t limb[kWords];

  static LaneWord load(const std::uint64_t* p) noexcept {
    LaneWord v;
    for (std::size_t i = 0; i < kWords; ++i) {
      v.limb[i] = p[i];
    }
    return v;
  }
  void store(std::uint64_t* p) const noexcept {
    for (std::size_t i = 0; i < kWords; ++i) {
      p[i] = limb[i];
    }
  }
  static LaneWord zero() noexcept {
    LaneWord v;
    for (std::size_t i = 0; i < kWords; ++i) {
      v.limb[i] = 0;
    }
    return v;
  }
  friend LaneWord operator|(LaneWord a, const LaneWord& b) noexcept {
    for (std::size_t i = 0; i < kWords; ++i) {
      a.limb[i] |= b.limb[i];
    }
    return a;
  }
  friend LaneWord operator&(LaneWord a, const LaneWord& b) noexcept {
    for (std::size_t i = 0; i < kWords; ++i) {
      a.limb[i] &= b.limb[i];
    }
    return a;
  }
  friend LaneWord operator^(LaneWord a, const LaneWord& b) noexcept {
    for (std::size_t i = 0; i < kWords; ++i) {
      a.limb[i] ^= b.limb[i];
    }
    return a;
  }
  /// *this & ~mask (the counter reset / pulse edge op).
  LaneWord andnot(const LaneWord& mask) const noexcept {
    LaneWord v;
    for (std::size_t i = 0; i < kWords; ++i) {
      v.limb[i] = limb[i] & ~mask.limb[i];
    }
    return v;
  }
  bool any() const noexcept {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kWords; ++i) {
      acc |= limb[i];
    }
    return acc != 0;
  }
};

/// Everything one bit-sliced counter update needs (one call per cycle):
/// the per-lane arrays all hold `words` 64-bit words (a multiple of the
/// kernel's block size, zero-padded past the live lanes), and `planes`
/// holds plane_count rows of `words` words each (plane q at planes + q *
/// words). See BatchSimulator::step for the dataflow this implements.
struct LaneCounterCtx {
  std::uint64_t* ring = nullptr;     ///< in: collector roots; out: match word
  const std::uint64_t* scratch = nullptr;  ///< this cycle's packed match word
  std::uint64_t* planes = nullptr;         ///< bit-sliced counts
  std::uint64_t* cond_prev = nullptr;  ///< >= threshold condition last cycle
  std::uint64_t* pulse = nullptr;      ///< out: counter pulse next cycle
  const std::uint64_t* valid = nullptr;  ///< live-lane masks (0 in padding)
  std::size_t words = 0;
  std::uint32_t plane_count = 0;
  std::uint32_t cond_plane = 0;
  std::uint64_t bias = 0;  ///< counter reload value (2^P - threshold)
  bool sort_now = false;   ///< uniform count enable this cycle
  bool eof_now = false;    ///< uniform counter reset this cycle
};

/// One width's stepping kernels: the width plus the two hot-loop kernels.
/// Value-semantic and immutable after resolution; share freely.
struct LaneKernels {
  LaneWidth width = LaneWidth::k64;
  const char* isa = "scalar";  ///< scalar (64) | portable (256, 512)
  /// dst |= src over `words` words (both block-aligned and padded).
  void (*or_rows)(std::uint64_t* dst, const std::uint64_t* src,
                  std::size_t words) = nullptr;
  void (*counter_update)(const LaneCounterCtx& ctx) = nullptr;

  std::size_t width_bits() const noexcept {
    return static_cast<std::size_t>(width);
  }
  std::size_t block_words() const noexcept { return width_bits() / 64; }
};

/// Lanes per block of the closed-form frame path's lane-major table.
inline constexpr std::size_t kMatchBlockLanes = 8;
/// Blocks per group: the match-count kernels reduce a group's 64 lanes to
/// kMatchBlockLanes maxima.
inline constexpr std::size_t kMatchGroupBlocks = 8;

/// Per-lane match counts for the closed-form frame path (see
/// BatchSimulator::run_continue). Every lane has a row of `row_words`
/// words; rows are stored in blocks of kMatchBlockLanes lanes, word k of
/// lane l at lane_bits[((l / 8) * row_words + k) * 8 + l % 8], so one
/// 512-bit load holds word k of a whole block. counts[l] = the sum over k
/// of popcount(word k of lane l & query[k]), for `blocks` blocks (lanes
/// rounded up to a whole block; pad lanes have zero rows).
///
/// maxima gets one entry per block, each the largest count over its own
/// set of 8 lanes, the sets disjoint (the group maxima): for each whole
/// group g of kMatchGroupBlocks blocks, entry 8g + i is the largest count
/// of lane i across the group's blocks (lanes 64g + 8j + i, j < 8), one
/// element-wise max per block; each block after the last whole group keeps
/// its own maximum. The block floor needs nothing more than maxima over
/// disjoint lane sets (docs/SIMULATOR_SEMANTICS.md, *The block floor*).
/// Independent of the stepping lane width.
using LaneMatchCounts = void (*)(const std::uint64_t* lane_bits,
                                 const std::uint64_t* query,
                                 std::size_t row_words, std::size_t blocks,
                                 std::uint32_t* counts,
                                 std::uint32_t* maxima);

/// The same counts for a program with at most two match classes, from one
/// row per lane (its class-0 bits) in the LaneMatchCounts layout:
/// counts[l] = base - the sum over k of popcount((word k of lane l ^
/// query[k]) & exact[k]) for the `lanes` live lanes, 0 for the pad lanes of
/// a partial last block, and the group maxima of those counts, pad lanes
/// included, in the LaneMatchCounts entries for ceil(lanes / 8) blocks.
/// `query` is class 0's query mask, `exact` marks the dimensions whose data
/// symbol exactly one class accepts, and base counts those some class
/// accepts, so base >= the popcount of `exact` and no count wraps.
using TwoClassMatchCounts = void (*)(const std::uint64_t* lane_bits,
                                     const std::uint64_t* query,
                                     const std::uint64_t* exact,
                                     std::uint32_t base,
                                     std::size_t row_words, std::size_t lanes,
                                     std::uint32_t* counts,
                                     std::uint32_t* maxima);

/// The block floor of a cut frame: the largest v in [lo, hi] that at least
/// k of the `entries` maxima reach, or lo when no v there does. That is the
/// k-th largest entry raised to lo and capped at hi. A binary search over
/// v, each probe counting the entries >= v.
using KthFloor = std::uint32_t (*)(const std::uint32_t* maxima,
                                   std::size_t entries, std::size_t k,
                                   std::uint32_t lo, std::uint32_t hi);

/// The candidate list of a cut frame: writes to `out`, in ascending order,
/// every lane l < blocks * 8 with counts[l] >= floor, and returns how many
/// it wrote. `counts` and `maxima` are one match-count kernel's output for
/// `blocks` blocks, so a group (or a block after the last whole group)
/// whose entries all fall below the floor is skipped unread. floor >= 1,
/// so pad lanes, which count 0, are never listed. `out` must have room for
/// (blocks + 1) * kMatchBlockLanes entries: a vector build writes whole
/// registers and may write up to that bound past the last listed lane.
using ListCandidates = std::size_t (*)(const std::uint32_t* counts,
                                       const std::uint32_t* maxima,
                                       std::size_t blocks,
                                       std::uint32_t floor,
                                       std::uint32_t* out);

/// The front end of a closed-form frame: the `length` symbols at `frame`
/// are a frame's data and fill symbols, between its SOF and EOF. Returns
/// false when one of them is the `sof` or `eof` symbol. Otherwise writes
/// `masks` query masks of ceil(dims / 64) words each, mask c at query +
/// c * ceil(dims / 64), from the first `dims` symbols (dims < length):
/// bit i of mask c = bit c of sym_classes[frame[i]], i.e. match class c
/// accepts data symbol i; bits from dims up are 0. `class_bytes` holds the
/// same classifier bytewise for table lookups: byte s of table t (at
/// class_bytes + 256 * t, t < 2) is bits 8t to 8t + 7 of sym_classes[s].
/// No sym_classes entry has a bit at or above `masks` (<= 16).
using FrameFrontEnd = bool (*)(const std::uint8_t* frame, std::size_t length,
                               std::size_t dims, std::uint8_t sof,
                               std::uint8_t eof,
                               const std::uint16_t* sym_classes,
                               const std::uint8_t* class_bytes,
                               std::size_t masks, std::uint64_t* query);

/// One build of the closed-form frame kernels. BatchSimulator checks the
/// frame and builds its query masks with the front end, counts with the
/// match-count kernel its program's class count selects, and cuts with
/// the other two.
struct MatchCountKernels {
  LaneMatchCounts multi_class = nullptr;
  TwoClassMatchCounts two_class = nullptr;
  KthFloor kth_floor = nullptr;
  ListCandidates list_candidates = nullptr;
  FrameFrontEnd front_end = nullptr;
  const char* isa = "portable";  ///< avx512-vpopcntdq | popcnt | portable
};

/// The AVX-512 build, else the hardware-POPCNT one, when the CPU has it
/// and APSS_DISABLE_SIMD is unset; else the portable build (all
/// bit-identical). The AVX-512 build needs avx512f, avx512bw, avx512vbmi,
/// avx512vpopcntdq and popcnt. The POPCNT build shares the portable front
/// end and cut kernels. Returns one of the builds' static registries.
/// APSS_DISABLE_SIMD counts as set unless it is "" or "0", and it is read
/// on every call, so tests can flip it between simulator constructions.
const MatchCountKernels& resolve_match_counts() noexcept;

/// The LaneWord<W> stepping kernels of `width` (bit-identical at every
/// width).
LaneKernels resolve_lane_kernels(LaneWidth width = LaneWidth::k64);

namespace detail {
/// The AVX-512 closed-form frame kernels, defined in
/// lane_kernels_avx512.cpp; null when that translation unit was built
/// without -mavx512f (non-x86, or a compiler without the flag). The caller
/// checks the CPU for avx512f, avx512bw, avx512vbmi, avx512vpopcntdq and
/// popcnt first.
const MatchCountKernels* avx512_match_counts() noexcept;
/// The hardware-POPCNT build of the portable kernels; null off x86. The
/// caller checks the CPU for popcnt first.
const MatchCountKernels* popcnt_match_counts() noexcept;
}  // namespace detail

}  // namespace apss::apsim
