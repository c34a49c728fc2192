#pragma once

/**
 * @file
 * Host fingerprint recorded with every result (a speed figure only
 * compares against one taken on the same host), and the process's
 * peak resident set.
 */

#include <string>

namespace perfbench {

struct HostInfo
{
    unsigned nproc = 0;
    std::string cpuModel;
    /** Per-core L2 and last-level cache sizes from sysfs (0 unknown). */
    long l2Bytes = 0;
    long llcBytes = 0;
};

HostInfo probeHost();

/** Process high-water resident set in MiB (getrusage). */
double peakRssMb();

} // namespace perfbench
