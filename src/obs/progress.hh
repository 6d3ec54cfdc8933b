/**
 * @file
 * Live progress for long suites: a periodic stderr line for humans
 * and an atomically-rewritten progress.json for machines (a
 * heartbeat for whatever supervises a suite worker).
 *
 * The sink is a bundle of relaxed atomic counters the scheduler and
 * injection callbacks bump, plus an optional background emitter
 * thread that samples them every intervalSeconds.  An unconfigured
 * sink (no stderr line, no json path) never starts the thread, so
 * schedulers can own one unconditionally at the cost of a few
 * atomics.
 *
 * progress.json schema (format "merlin-progress-v1"):
 *
 *   {
 *     "format": "merlin-progress-v1",
 *     "state": "running" | "done",
 *     "pid": 12345,
 *     "epoch": 1754650000,          // unix seconds of this rewrite
 *     "elapsed_seconds": 12.5,
 *     "campaigns": {"total": 8, "done": 3, "cached": 1},
 *     "injections": 12345,
 *     "injections_per_sec": 456.7
 *   }
 *
 * Each rewrite is temp-file + rename, so a reader never sees a torn
 * document; an "epoch" that falls behind the clock while "state" is
 * still "running" is a stalled worker.  Strictly out-of-band: the
 * sink only ever reads engine state.
 */

#ifndef MERLIN_OBS_PROGRESS_HH
#define MERLIN_OBS_PROGRESS_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "io/json.hh"
#include "obs/clock.hh"

namespace merlin::obs
{

class ProgressSink
{
  public:
    struct Options
    {
        /** Emitter cadence in seconds (applies to both outputs). */
        double intervalSeconds = 1.0;
        /** Print a progress line to stderr each interval. */
        bool stderrLine = false;
        /** Rewrite this progress.json each interval ("" = none). */
        std::string jsonPath;
    };

    /** Inert sink: counters usable, nothing emitted. */
    ProgressSink() = default;

    /** Starts the emitter thread when either output is configured. */
    explicit ProgressSink(Options opts);

    ~ProgressSink();

    ProgressSink(const ProgressSink &) = delete;
    ProgressSink &operator=(const ProgressSink &) = delete;

    // Engine-updated counters (relaxed; exactness per sample is not a
    // goal — the final "done" emit sees the settled values).
    std::atomic<std::uint64_t> campaignsTotal{0};
    std::atomic<std::uint64_t> campaignsDone{0};
    std::atomic<std::uint64_t> campaignsCached{0};
    std::atomic<std::uint64_t> injections{0};

    /**
     * Stop the emitter and write the final state ("done") to both
     * outputs.  Idempotent; the destructor calls it.
     */
    void finish();

    /** Current snapshot as progress.json content. */
    io::Json toJson(const char *state) const;

  private:
    void emit(const char *state) const;
    void loop();

    Options opts_;
    TimePoint t0_ = now();
    bool emitterConfigured_ = false;
    bool finished_ = false;
    std::thread thread_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool stop_ = false;
};

} // namespace merlin::obs

#endif // MERLIN_OBS_PROGRESS_HH
