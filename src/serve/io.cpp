#include "serve/io.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>

#include <unistd.h>

#include "core/mix.h"

namespace syscomm::serve {

namespace fs = std::filesystem;

const char*
fsyncPolicyName(FsyncPolicy policy)
{
    switch (policy) {
    case FsyncPolicy::kNone: return "none";
    case FsyncPolicy::kMarkers: return "markers";
    case FsyncPolicy::kAlways: return "always";
    }
    return "none";
}

bool
parseFsyncPolicy(const std::string& text, FsyncPolicy& out)
{
    if (text == "none") {
        out = FsyncPolicy::kNone;
    } else if (text == "markers") {
        out = FsyncPolicy::kMarkers;
    } else if (text == "always") {
        out = FsyncPolicy::kAlways;
    } else {
        return false;
    }
    return true;
}

struct IoFile
{
    std::FILE* fp = nullptr;
    std::string path;
};

namespace {

std::string
errnoText(const std::string& path)
{
    return path + ": " + std::strerror(errno);
}

/** The production passthrough: C stdio + std::filesystem, no state. */
class SystemIo final : public Io
{
  public:
    IoFile*
    openWrite(const std::string& path, bool append,
              std::string& error) override
    {
        std::FILE* fp = std::fopen(path.c_str(), append ? "ab" : "wb");
        if (fp == nullptr) {
            error = errnoText(path);
            return nullptr;
        }
        return new IoFile{fp, path};
    }

    bool
    write(IoFile* file, const void* data, std::size_t len,
          std::string& error) override
    {
        if (len == 0)
            return true;
        if (std::fwrite(data, 1, len, file->fp) != len) {
            error = errnoText(file->path);
            return false;
        }
        return true;
    }

    bool
    flush(IoFile* file, std::string& error) override
    {
        if (std::fflush(file->fp) != 0) {
            error = errnoText(file->path);
            return false;
        }
        return true;
    }

    bool
    sync(IoFile* file, std::string& error) override
    {
        if (std::fflush(file->fp) != 0 ||
            ::fsync(::fileno(file->fp)) != 0) {
            error = errnoText(file->path);
            return false;
        }
        return true;
    }

    void
    close(IoFile* file) override
    {
        if (file == nullptr)
            return;
        std::fclose(file->fp);
        delete file;
    }

    bool
    rename(const std::string& from, const std::string& to,
           std::string& error) override
    {
        std::error_code ec;
        fs::rename(from, to, ec);
        if (ec) {
            error = from + " -> " + to + ": " + ec.message();
            return false;
        }
        return true;
    }

    bool
    truncate(const std::string& path, std::uint64_t size,
             std::string& error) override
    {
        std::error_code ec;
        fs::resize_file(path, size, ec);
        if (ec) {
            error = path + ": " + ec.message();
            return false;
        }
        return true;
    }

    bool
    remove(const std::string& path) override
    {
        std::error_code ec;
        fs::remove(path, ec);
        return !ec;
    }

    bool
    readFile(const std::string& path, std::string& out,
             std::string& error) override
    {
        std::FILE* fp = std::fopen(path.c_str(), "rb");
        if (fp == nullptr) {
            error = errnoText(path);
            return false;
        }
        out.clear();
        char buffer[1 << 16];
        std::size_t got = 0;
        while ((got = std::fread(buffer, 1, sizeof buffer, fp)) > 0)
            out.append(buffer, got);
        const bool ok = std::ferror(fp) == 0;
        if (!ok)
            error = errnoText(path);
        std::fclose(fp);
        return ok;
    }
};

} // namespace

Io&
Io::system()
{
    static SystemIo io;
    return io;
}

bool
writeFileAtomicIo(Io& io, const std::string& path,
                  const std::string& data, FsyncPolicy policy,
                  std::string& error)
{
    const std::string tmp = path + ".tmp";
    IoFile* file = io.openWrite(tmp, /*append=*/false, error);
    if (file == nullptr)
        return false;
    bool ok = io.write(file, data.data(), data.size(), error);
    if (ok)
        ok = io.flush(file, error);
    if (ok && policy != FsyncPolicy::kNone)
        ok = io.sync(file, error);
    io.close(file);
    if (!ok || !io.rename(tmp, path, error)) {
        // No orphans on the failure path. (A *crash* mid-write can
        // still leave a .tmp behind — spool recovery sweeps those.)
        io.remove(tmp);
        return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// FaultyIo

struct FaultyIoState
{
    mutable std::mutex mu;
    IoFaultKind kind = IoFaultKind::kNone;
    std::uint64_t atOp = 0;
    std::uint64_t seed = 0;
    std::uint64_t ops = 0;
    bool dead = false;   // kCrash fired: the disk is gone
    bool enospc = false; // sticky until clearFault()
    bool fired = false;  // one-shot faults (kEio, kShortWrite) spent
};

namespace {

/** What a mutating op should do once the schedule has been consulted. */
enum class Act : std::uint8_t {
    kPass, ///< delegate to the real io
    kFail, ///< fail with error, no side effects
    kTorn, ///< write a seeded prefix, then fail
};

} // namespace

FaultyIo::FaultyIo(IoFaultKind kind, std::uint64_t atOp,
                   std::uint64_t seed)
    : state_(new FaultyIoState)
{
    state_->kind = kind;
    state_->atOp = atOp;
    state_->seed = seed;
}

FaultyIo::~FaultyIo() = default;

namespace {

// Consult the schedule for one mutating op. The only place that
// advances the counter, so profiling and replay runs agree on op
// indices.
Act
stepSchedule(FaultyIoState& s, std::string& error)
{
    if (s.dead) {
        error = "simulated crash: io is dead";
        return Act::kFail;
    }
    if (s.enospc) {
        error = "no space left on device (simulated ENOSPC)";
        return Act::kFail;
    }
    ++s.ops;
    if (s.kind == IoFaultKind::kNone || s.fired || s.ops != s.atOp)
        return Act::kPass;
    switch (s.kind) {
    case IoFaultKind::kCrash:
        s.dead = true;
        error = "simulated crash at io op " + std::to_string(s.ops);
        return Act::kTorn;
    case IoFaultKind::kEio:
        s.fired = true;
        error = "input/output error (simulated EIO)";
        return Act::kFail;
    case IoFaultKind::kEnospc:
        s.enospc = true;
        error = "no space left on device (simulated ENOSPC)";
        return Act::kFail;
    case IoFaultKind::kShortWrite:
        s.fired = true;
        error = "short write (simulated)";
        return Act::kTorn;
    case IoFaultKind::kNone:
        break;
    }
    return Act::kPass;
}

} // namespace

IoFile*
FaultyIo::openWrite(const std::string& path, bool append,
                    std::string& error)
{
    std::lock_guard<std::mutex> lock(state_->mu);
    if (state_->dead) {
        error = "simulated crash: io is dead";
        return nullptr;
    }
    return Io::system().openWrite(path, append, error);
}

bool
FaultyIo::write(IoFile* file, const void* data, std::size_t len,
                std::string& error)
{
    std::lock_guard<std::mutex> lock(state_->mu);
    const Act act = stepSchedule(*state_, error);
    if (act == Act::kPass)
        return Io::system().write(file, data, len, error);
    if (act == Act::kTorn && len > 0) {
        // A torn write persists a deterministic strict prefix — the
        // exact artifact a power cut leaves — then reports failure.
        const std::size_t prefix = static_cast<std::size_t>(
            mix64(state_->seed ^ state_->ops) % len);
        std::string ignored;
        if (prefix > 0 &&
            Io::system().write(file, data, prefix, ignored))
            Io::system().flush(file, ignored);
    }
    return false;
}

bool
FaultyIo::flush(IoFile* file, std::string& error)
{
    std::lock_guard<std::mutex> lock(state_->mu);
    if (state_->dead) {
        error = "simulated crash: io is dead";
        return false;
    }
    return Io::system().flush(file, error);
}

bool
FaultyIo::sync(IoFile* file, std::string& error)
{
    std::lock_guard<std::mutex> lock(state_->mu);
    const Act act = stepSchedule(*state_, error);
    if (act != Act::kPass)
        return false;
    return Io::system().sync(file, error);
}

void
FaultyIo::close(IoFile* file)
{
    Io::system().close(file);
}

bool
FaultyIo::rename(const std::string& from, const std::string& to,
                 std::string& error)
{
    std::lock_guard<std::mutex> lock(state_->mu);
    const Act act = stepSchedule(*state_, error);
    if (act != Act::kPass)
        return false;
    return Io::system().rename(from, to, error);
}

bool
FaultyIo::truncate(const std::string& path, std::uint64_t size,
                   std::string& error)
{
    std::lock_guard<std::mutex> lock(state_->mu);
    const Act act = stepSchedule(*state_, error);
    if (act != Act::kPass)
        return false;
    return Io::system().truncate(path, size, error);
}

bool
FaultyIo::remove(const std::string& path)
{
    std::lock_guard<std::mutex> lock(state_->mu);
    if (state_->dead)
        return false; // a crashed process deletes nothing
    return Io::system().remove(path);
}

bool
FaultyIo::readFile(const std::string& path, std::string& out,
                   std::string& error)
{
    std::lock_guard<std::mutex> lock(state_->mu);
    if (state_->dead) {
        error = "simulated crash: io is dead";
        return false;
    }
    return Io::system().readFile(path, out, error);
}

std::uint64_t
FaultyIo::opCount() const
{
    std::lock_guard<std::mutex> lock(state_->mu);
    return state_->ops;
}

bool
FaultyIo::crashed() const
{
    std::lock_guard<std::mutex> lock(state_->mu);
    return state_->dead;
}

void
FaultyIo::clearFault()
{
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->enospc = false;
}

} // namespace syscomm::serve
