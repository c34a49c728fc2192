#pragma once

/**
 * @file
 * Golden digest folds of the sweep workloads, one per input variant:
 * foldDigests() over the grid's per-row SimSession::machineDigest()s
 * in grid order. Pinned from the simulator as of the commit that
 * introduced the benchmark; any change to simulated behaviour breaks
 * them, which is the point. Regenerate with `perfbench
 * --print-golden` only for a change that is meant to alter behaviour.
 */

#include <cstdint>
#include <string>

namespace perfbench {

/** The sweep workloads draw their generator input from seed mod this. */
inline constexpr int kSweepVariants = 16;

inline constexpr std::uint64_t kDenseGolden[kSweepVariants] = {
    0x7dec973d1fd6e575ULL, 0xda84ced43bd087a5ULL, 0x4b60086f2329922dULL,
    0xb3680655207a80f5ULL, 0x75607dfe137cabe5ULL, 0xf06e43c36eb0201dULL,
    0x62254ba689f3766dULL, 0xd4f909e9b5600375ULL, 0x052d7953a8f9597dULL,
    0x9acd5408939bf335ULL, 0xbba47388bce61605ULL, 0x82b672e30faac73dULL,
    0xc4ab12c92e2b25adULL, 0x12a8ef929ca56075ULL, 0x108c006c93003b9dULL,
    0xc5854aa9d2acc98dULL,
};

inline constexpr std::uint64_t kStreamGolden[kSweepVariants] = {
    0x660c574d90cc9fb9ULL, 0x212a1a9a3f0f1ab1ULL, 0xe2d632462d809d39ULL,
    0x71cde059c9b1a579ULL, 0x62abe3434842f58dULL, 0xe07d5c5d5555a7cdULL,
    0x6f80f59bf05cb511ULL, 0x807e2852a70f0ac1ULL, 0x58c1f10580303325ULL,
    0xd916f8bb2f3f7025ULL, 0x0e9aac973543e5d5ULL, 0x13cf8cee36257cd1ULL,
    0x08e0577ffff8edddULL, 0x4cb7ca9088947899ULL, 0xc221654a65dcade9ULL,
    0x4c3db92ebebadc45ULL,
};

inline std::uint64_t
sweepGolden(const std::string& workload, int variant)
{
    return workload == "sweep_dense" ? kDenseGolden[variant]
                                     : kStreamGolden[variant];
}

} // namespace perfbench
