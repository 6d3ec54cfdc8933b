#include "obs/progress.hh"

#include <chrono>
#include <cstdio>
#include <fstream>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "base/logging.hh"

namespace merlin::obs
{

namespace
{

std::uint64_t
processId()
{
#if defined(__unix__) || defined(__APPLE__)
    return static_cast<std::uint64_t>(::getpid());
#else
    return 1;
#endif
}

/** Wall-clock unix seconds — the staleness reference external
 *  monitors compare against their own clock. */
std::uint64_t
epochSeconds()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::seconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
}

} // namespace

ProgressSink::ProgressSink(Options opts) : opts_(std::move(opts))
{
    if (opts_.intervalSeconds <= 0.0)
        opts_.intervalSeconds = 1.0;
    emitterConfigured_ = opts_.stderrLine || !opts_.jsonPath.empty();
    if (emitterConfigured_)
        thread_ = std::thread([this] { loop(); });
}

ProgressSink::~ProgressSink()
{
    try {
        finish();
    } catch (...) {
        // Destructor context: a failed final rewrite must not
        // terminate a suite that already computed its results.
    }
}

io::Json
ProgressSink::toJson(const char *state) const
{
    const std::uint64_t inj = injections.load(std::memory_order_relaxed);
    const double elapsed = secondsSince(t0_);

    io::Json campaigns = io::Json::object();
    campaigns.set("total",
                  campaignsTotal.load(std::memory_order_relaxed));
    campaigns.set("done", campaignsDone.load(std::memory_order_relaxed));
    campaigns.set("cached",
                  campaignsCached.load(std::memory_order_relaxed));

    io::Json doc = io::Json::object();
    doc.set("format", "merlin-progress-v1");
    doc.set("state", state);
    doc.set("pid", processId());
    doc.set("epoch", epochSeconds());
    doc.set("elapsed_seconds", elapsed);
    doc.set("campaigns", campaigns);
    doc.set("injections", inj);
    doc.set("injections_per_sec",
            elapsed > 0.0 ? static_cast<double>(inj) / elapsed : 0.0);
    return doc;
}

void
ProgressSink::emit(const char *state) const
{
    if (opts_.stderrLine) {
        const std::uint64_t done =
            campaignsDone.load(std::memory_order_relaxed);
        const std::uint64_t total =
            campaignsTotal.load(std::memory_order_relaxed);
        const std::uint64_t cached =
            campaignsCached.load(std::memory_order_relaxed);
        const std::uint64_t inj =
            injections.load(std::memory_order_relaxed);
        const double elapsed = secondsSince(t0_);
        std::fprintf(
            stderr,
            "progress: %llu/%llu campaigns (%llu cached), %llu "
            "injections, %.1f inj/s, %.1fs%s\n",
            static_cast<unsigned long long>(done),
            static_cast<unsigned long long>(total),
            static_cast<unsigned long long>(cached),
            static_cast<unsigned long long>(inj),
            elapsed > 0.0 ? static_cast<double>(inj) / elapsed : 0.0,
            elapsed, std::string(state) == "done" ? " [done]" : "");
    }
    if (!opts_.jsonPath.empty()) {
        // Atomic rewrite: readers always see a complete document.
        // No fsync — this is an operational signal, not durable
        // state; a crash simply leaves the previous rewrite.
        const std::string tmp = opts_.jsonPath + ".tmp";
        {
            std::ofstream os(tmp, std::ios::trunc);
            if (!os)
                fatal("progress: cannot write '", tmp, "'");
            os << toJson(state).dump(2) << '\n';
            os.flush();
            os.close();
            if (!os.good())
                fatal("progress: write to '", tmp,
                      "' failed (disk full?)");
        }
        if (std::rename(tmp.c_str(), opts_.jsonPath.c_str()) != 0)
            fatal("progress: cannot rename '", tmp, "' to '",
                  opts_.jsonPath, "'");
    }
}

void
ProgressSink::loop()
{
    const auto interval = std::chrono::duration<double>(
        opts_.intervalSeconds);
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
        if (cv_.wait_for(lock, interval, [this] { return stop_; }))
            break;
        lock.unlock();
        emit("running");
        lock.lock();
    }
}

void
ProgressSink::finish()
{
    if (finished_)
        return;
    finished_ = true;
    if (emitterConfigured_) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stop_ = true;
        }
        cv_.notify_all();
        if (thread_.joinable())
            thread_.join();
        emit("done");
    }
}

} // namespace merlin::obs
