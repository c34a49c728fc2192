#include "host.h"

#include <sys/resource.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

namespace perfbench {

namespace {

std::string
readLine(const std::string& path)
{
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    return line;
}

/** sysfs cache size ("2048K", "32M") in bytes; 0 when unreadable. */
long
parseSize(const std::string& text)
{
    char* end = nullptr;
    long v = std::strtol(text.c_str(), &end, 10);
    if (end == text.c_str())
        return 0;
    if (*end == 'K')
        v *= 1024;
    else if (*end == 'M')
        v *= 1024 * 1024;
    return v;
}

} // namespace

HostInfo
probeHost()
{
    HostInfo host;
    host.nproc = std::thread::hardware_concurrency();

    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
        if (line.rfind("model name", 0) == 0) {
            std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                host.cpuModel = line.substr(colon + 2);
            break;
        }
    }

    // cpu0's cache indices: the highest unified level is the LLC.
    int llcLevel = 0;
    for (int i = 0; i < 8; ++i) {
        std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" +
                          std::to_string(i) + "/";
        std::string level = readLine(dir + "level");
        if (level.empty())
            break;
        std::string type = readLine(dir + "type");
        long size = parseSize(readLine(dir + "size"));
        int lv = std::atoi(level.c_str());
        if (lv == 2 && type != "Instruction")
            host.l2Bytes = size;
        if (type == "Unified" && lv >= llcLevel) {
            llcLevel = lv;
            host.llcBytes = size;
        }
    }
    return host;
}

double
peakRssMb()
{
    struct rusage usage {};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0.0;
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

} // namespace perfbench
