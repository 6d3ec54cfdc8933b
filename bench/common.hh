/**
 * @file
 * Shared scaffolding for the per-figure/table bench binaries.
 *
 * Every binary regenerates one table or figure of the paper.  Defaults
 * are scaled so the whole bench suite finishes in minutes on a laptop;
 * flags restore paper scale.  Flags are spelled --name=value; any
 * other argument is a usage error (exit 2):
 *
 *   --faults=N        initial fault-list size (default per bench)
 *   --paper           paper-scale fault lists (60,000 / 600,000)
 *   --workloads=a,b   comma-separated subset (default per bench)
 *   --seed=N          campaign seed
 *   --jobs=N          shared suite-pool workers (0 = all hardware
 *                     threads, at most ThreadPool::kMaxThreads);
 *                     campaigns overlap and workers steal
 *                     injections across campaigns, results unchanged
 *   --json=FILE       write a metrics snapshot (engine counters +
 *                     bench measurements recorded via record()) to
 *                     FILE when the binary exits
 */

#ifndef MERLIN_BENCH_COMMON_HH
#define MERLIN_BENCH_COMMON_HH

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "base/parse.hh"
#include "base/strings.hh"
#include "base/threadpool.hh"
#include "merlin/campaign.hh"
#include "obs/metrics.hh"
#include "workloads/workloads.hh"

namespace merlin::bench
{

/**
 * Record one bench measurement (a speedup, a wall time) as a gauge so
 * it lands in the --json metrics snapshot next to the engine's own
 * counters.  Reporting stays on stdout; this is the machine-readable
 * copy.
 */
inline void
record(const std::string &name, double value)
{
    obs::Registry::global().gauge(name).set(value);
}

namespace detail
{

/**
 * Arrange for a metrics snapshot to be written when the process exits
 * (normally — a fatal() bypasses it).  An atexit hook rather than a
 * call at the end of each bench main: every main keeps its early
 * returns and the snapshot still captures whatever ran.
 */
inline void
dumpMetricsAtExit(const std::string &path)
{
    static std::string dump_path;
    if (!dump_path.empty())
        return; // one hook is enough; first path wins
    // Touch the registry BEFORE registering the hook: function-local
    // statics are destroyed in reverse construction order, so this
    // guarantees the registry outlives the handler below.
    obs::Registry::global();
    dump_path = path;
    std::atexit(+[] {
        std::ofstream out(dump_path,
                          std::ios::binary | std::ios::trunc);
        if (!out) {
            std::fprintf(stderr,
                         "bench: cannot write metrics to '%s'\n",
                         dump_path.c_str());
            return;
        }
        out << obs::Registry::global().snapshot().toJson().dump(2)
            << '\n';
    });
}

} // namespace detail

struct Options
{
    std::uint64_t faults = 0; ///< 0 = per-bench default
    std::uint64_t seed = 1;
    unsigned jobs = 1; ///< suite-pool workers (0 = hardware threads)
    bool paper = false;
    std::string jsonPath; ///< --json=FILE metrics snapshot on exit
    std::vector<std::string> workloads;

    /**
     * Parse the shared flags, all spelled --name=value (or bare
     * --paper).  Any other argument, and a --workloads name that is
     * not a bundled workload, is a usage error: exit 2 naming it,
     * never a silently-applied default.
     */
    static Options
    parse(int argc, char **argv)
    {
        try {
            Options o;
            for (int i = 1; i < argc; ++i)
                o.parseOne(argv[i]);
            if (!o.jsonPath.empty())
                detail::dumpMetricsAtExit(o.jsonPath);
            return o;
        } catch (const FatalError &e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            std::exit(2);
        }
    }

    /** Sampling spec given this bench's scaled default. */
    core::SamplingSpec
    sampling(std::uint64_t scaled_default) const
    {
        if (paper)
            return core::spec60k();
        return core::specFixed(faults ? faults : scaled_default);
    }

    std::vector<std::string>
    workloadsOr(const std::vector<std::string> &def) const
    {
        return workloads.empty() ? def : workloads;
    }

  private:
    void
    parseOne(const std::string &a)
    {
        auto val = [&](const std::string &flag) -> const char * {
            if (a.size() > flag.size() && a.rfind(flag, 0) == 0 &&
                a[flag.size()] == '=') {
                return a.c_str() + flag.size() + 1;
            }
            return nullptr;
        };
        if (a == "--paper") {
            paper = true;
        } else if (const char *v = val("--faults")) {
            // Strict shared parser (base::parseU64): raw strtoull
            // silently accepted "-1" (wrapping to 2^64-1), overflow
            // and trailing junk.
            faults = base::parseU64(v, "--faults");
        } else if (const char *v2 = val("--seed")) {
            seed = base::parseU64(v2, "--seed");
        } else if (const char *v3 = val("--workloads")) {
            workloads = base::splitCommaList(v3);
            const auto known = merlin::workloads::allWorkloadNames();
            for (const std::string &w : workloads)
                if (std::find(known.begin(), known.end(), w) ==
                    known.end())
                    fatal("--workloads: unknown workload '", w, "'");
        } else if (const char *v4 = val("--jobs")) {
            jobs = base::ThreadPool::checkThreads(
                base::parseU32(v4, "--jobs"), "--jobs");
        } else if (const char *v5 = val("--json")) {
            jsonPath = v5;
        } else if (a == "--help" || a == "-h") {
            std::printf("flags: --faults=N --paper --workloads=a,b "
                        "--seed=N --jobs=N --json=FILE\n");
            std::exit(0);
        } else {
            fatal("unknown flag '", a, "' (bench flags are --name=value)");
        }
    }
};

/** The paper's size variants per structure (Table 1). */
inline const std::vector<unsigned> &
sizeVariants(uarch::Structure s)
{
    static const std::vector<unsigned> rf = {256, 128, 64};
    static const std::vector<unsigned> sq = {64, 32, 16};
    static const std::vector<unsigned> l1d = {64, 32, 16}; // KB
    switch (s) {
      case uarch::Structure::RegisterFile: return rf;
      case uarch::Structure::StoreQueue:   return sq;
      default:                             return l1d;
    }
}

inline std::string
sizeLabel(uarch::Structure s, unsigned v)
{
    switch (s) {
      case uarch::Structure::RegisterFile:
        return std::to_string(v) + "regs";
      case uarch::Structure::StoreQueue:
        return std::to_string(v) + "entries";
      default:
        return std::to_string(v) + "KB";
    }
}

/** Core config with the target structure set to one size variant. */
inline uarch::CoreConfig
configFor(uarch::Structure s, unsigned variant)
{
    uarch::CoreConfig cfg;
    switch (s) {
      case uarch::Structure::RegisterFile:
        return cfg.withRegisterFile(variant);
      case uarch::Structure::StoreQueue:
        return cfg.withStoreQueue(variant);
      default:
        return cfg.withL1dKb(variant);
    }
}

/** The SPEC evaluation configuration (Section 4.4.2.3). */
inline uarch::CoreConfig
specConfig(std::uint64_t window)
{
    uarch::CoreConfig cfg;
    cfg = cfg.withRegisterFile(128).withStoreQueue(16).withL1dKb(32);
    cfg.instructionWindowEnd = window;
    return cfg;
}

/** Bits of the target structure (for FIT). */
inline std::uint64_t
structureBits(uarch::Structure s, const uarch::CoreConfig &cfg)
{
    return std::uint64_t(uarch::structureEntries(s, cfg)) * 64;
}

inline void
header(const char *id, const char *what, const Options &o,
       std::uint64_t default_faults)
{
    std::printf("==============================================================\n");
    std::printf("%s — %s\n", id, what);
    std::printf("initial fault list: %llu per campaign%s (paper: 60,000)\n",
                static_cast<unsigned long long>(
                    o.paper ? 60000 : (o.faults ? o.faults
                                                : default_faults)),
                o.paper ? " [--paper]" : "");
    std::printf("machine: %s\n",
                uarch::CoreConfig{}.summary().c_str());
    std::printf("==============================================================\n");
}

} // namespace merlin::bench

#endif // MERLIN_BENCH_COMMON_HH
